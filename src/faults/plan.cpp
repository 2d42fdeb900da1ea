#include "faults/plan.h"

#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <string>
#include <system_error>

namespace cleaks::faults {

std::string to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kTransientUnavailable: return "transient-unavailable";
    case FaultKind::kPermanentDeny: return "permanent-deny";
    case FaultKind::kRaplWrapForce: return "rapl-wrap-force";
    case FaultKind::kPerfDropout: return "perf-dropout";
  }
  return "unknown";
}

Result<FaultKind> fault_kind_from_string(std::string_view text) {
  if (text == "transient-unavailable") return FaultKind::kTransientUnavailable;
  if (text == "permanent-deny") return FaultKind::kPermanentDeny;
  if (text == "rapl-wrap-force") return FaultKind::kRaplWrapForce;
  if (text == "perf-dropout") return FaultKind::kPerfDropout;
  return {StatusCode::kInvalidArgument,
          "unknown fault kind: " + std::string(text)};
}

// Enough significant digits for a double to read back bit for bit.
constexpr int kExactDigits = 17;

void append_plan_json(const FaultPlan& plan, obs::JsonWriter& json,
                      std::string_view key) {
  json.begin_object(key);
  json.field("seed", plan.seed);
  json.begin_array("rules");
  for (const FaultRule& rule : plan.rules) {
    json.begin_object()
        .field("kind", to_string(rule.kind))
        .field("path_glob", rule.path_glob)
        .field("rate", rule.rate, kExactDigits)
        .field("period_ns", rule.period)
        .field("duration_ns", rule.duration)
        .field("start_ns", rule.start)
        .field("end_ns", rule.end)
        .field("scale", rule.scale, kExactDigits)
        .end_object();
  }
  json.end_array();
  json.end_object();
}

namespace {

/// The rule's nanosecond member named `key`, or nullptr.
std::uint64_t* ns_member(FaultRule& rule, std::string_view key) {
  if (key == "period_ns") return &rule.period;
  if (key == "duration_ns") return &rule.duration;
  if (key == "start_ns") return &rule.start;
  if (key == "end_ns") return &rule.end;
  return nullptr;
}

/// Recursive-descent reader for exactly the document shape
/// append_plan_json emits. Unknown keys are errors: the round-trip
/// guarantee is serialize -> parse -> identical plan, nothing looser.
class PlanParser {
 public:
  explicit PlanParser(std::string_view text) : text_(text) {}

  Result<FaultPlan> parse() {
    FaultPlan plan;
    skip_ws();
    if (!consume('{')) return fail("expected '{'");
    skip_ws();
    // Accept the wrapped form {"faults": {...}} that a spec document uses.
    if (peek() == '"') {
      const std::size_t mark = pos_;
      std::string first_key;
      if (parse_string(first_key) && first_key == "faults") {
        skip_ws();
        if (!consume(':')) return fail("expected ':' after \"faults\"");
        const Status body = parse_plan_body(plan);
        if (!body.is_ok()) return body;
        skip_ws();
        if (!consume('}')) return fail("expected '}' closing the wrapper");
        return finish(plan);
      }
      pos_ = mark;  // bare plan object: rewind and parse members here
    }
    pos_ = 0;
    const Status body = parse_plan_body(plan);
    if (!body.is_ok()) return body;
    return finish(plan);
  }

 private:
  Result<FaultPlan> finish(FaultPlan& plan) {
    skip_ws();
    if (pos_ != text_.size()) return fail("trailing characters after plan");
    return plan;
  }

  Status parse_plan_body(FaultPlan& plan) {
    skip_ws();
    if (!consume('{')) return fail("expected '{' opening the plan");
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      std::string key;
      if (!parse_string(key)) return fail("expected a member name");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after \"" + key + "\"");
      skip_ws();
      if (key == "seed") {
        if (!parse_u64(plan.seed)) return fail("bad seed");
      } else if (key == "rules") {
        const Status rules = parse_rules(plan.rules);
        if (!rules.is_ok()) return rules;
      } else {
        return fail("unknown plan member: " + key);
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}' in plan object");
    }
  }

  Status parse_rules(std::vector<FaultRule>& rules) {
    if (!consume('[')) return fail("expected '[' opening rules");
    skip_ws();
    if (consume(']')) return Status::ok();
    while (true) {
      FaultRule rule;
      const Status status = parse_rule(rule);
      if (!status.is_ok()) return status;
      rules.push_back(std::move(rule));
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume(']')) return Status::ok();
      return fail("expected ',' or ']' in rules array");
    }
  }

  Status parse_rule(FaultRule& rule) {
    if (!consume('{')) return fail("expected '{' opening a rule");
    skip_ws();
    if (consume('}')) return Status::ok();
    while (true) {
      std::string key;
      if (!parse_string(key)) return fail("expected a rule member name");
      skip_ws();
      if (!consume(':')) return fail("expected ':' after \"" + key + "\"");
      skip_ws();
      if (key == "kind") {
        std::string kind_text;
        if (!parse_string(kind_text)) return fail("bad rule kind");
        auto kind = fault_kind_from_string(kind_text);
        if (!kind.is_ok()) return kind.status();
        rule.kind = kind.value();
      } else if (key == "path_glob") {
        if (!parse_string(rule.path_glob)) return fail("bad path_glob");
      } else if (key == "rate" || key == "scale") {
        double& number = key == "rate" ? rule.rate : rule.scale;
        if (!parse_number(number)) return fail("bad number for " + key);
      } else if (std::uint64_t* ns = ns_member(rule, key)) {
        if (!parse_u64(*ns)) return fail("bad integer for " + key);
      } else {
        return fail("unknown rule member: " + key);
      }
      skip_ws();
      if (consume(',')) {
        skip_ws();
        continue;
      }
      if (consume('}')) return Status::ok();
      return fail("expected ',' or '}' in rule object");
    }
  }

  [[nodiscard]] char peek() const {
    return pos_ < text_.size() ? text_[pos_] : '\0';
  }
  bool consume(char c) {
    if (peek() != c) return false;
    ++pos_;
    return true;
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool parse_string(std::string& out) {
    if (!consume('"')) return false;
    out.clear();
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char escaped = text_[pos_++];
        switch (escaped) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case '/': out.push_back('/'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'r': out.push_back('\r'); break;
          default: return false;  // \uXXXX etc: the writer never emits them
        }
        continue;
      }
      out.push_back(c);
    }
    return false;  // unterminated
  }

  /// The characters of a JSON number, consumed as one token.
  std::string_view number_token() {
    const std::size_t begin = pos_;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if ((c >= '0' && c <= '9') || c == '-' || c == '+' || c == '.' ||
          c == 'e' || c == 'E') {
        ++pos_;
      } else {
        break;
      }
    }
    return text_.substr(begin, pos_ - begin);
  }

  bool parse_number(double& out) {
    const std::string token(number_token());
    if (token.empty()) return false;
    char* parse_end = nullptr;
    out = std::strtod(token.c_str(), &parse_end);
    return parse_end == token.c_str() + token.size();
  }

  /// An exact unsigned 64-bit integer: digits only. A sign, a fraction, an
  /// exponent or a value past UINT64_MAX is an error, never a rounding.
  bool parse_u64(std::uint64_t& out) {
    const std::string_view token = number_token();
    const char* end = token.data() + token.size();
    const auto [stop, error] = std::from_chars(token.data(), end, out);
    return error == std::errc{} && stop == end;
  }

  Status fail(std::string why) const {
    return Status{StatusCode::kInvalidArgument,
                  "fault plan parse error at offset " + std::to_string(pos_) +
                      ": " + std::move(why)};
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Result<FaultPlan> parse_plan_json(std::string_view text) {
  return PlanParser(text).parse();
}

}  // namespace cleaks::faults
