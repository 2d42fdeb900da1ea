// Canned ScenarioSpecs for the paper's evaluation matrix. A preset that is
// shared between a bench and a test lives here so the golden test pins the
// *same* spec the bench runs, not a transcription of it.
#pragma once

#include "attack/strategy.h"
#include "sim/scenario.h"

namespace cleaks::sim {

/// Fig 3 fleet: 8 servers behind one breaker, identical benign background
/// (seed 4248) for every strategy, the morning-ramp warmup to 09:00, one
/// 8-vCPU attacker container + RAPL monitor per server. Control starts
/// kIdle; the bench switches to kMonitor / kCoordinated / kAutonomous per
/// phase, and kCoordinated uses SimEngine's Fig 3 crest constants.
ScenarioSpec fig3_fleet(attack::StrategyKind kind);

}  // namespace cleaks::sim
