// PlacementIndex: incrementally-maintained server-occupancy index behind
// CloudProvider::pick_server().
//
// The pre-PR-10 provider rebuilt a full occupancy vector on every launch
// (O(servers) per placement). This index maintains per-server counts
// under add/remove of one instance in O(1), plus what kRandom reads:
//
//   * kRandom  — a Fenwick tree over the per-server "has room" flag gives
//     the non-full count and O(log R) selection of the r-th non-full
//     server *in index order*, which is exactly the candidate array the
//     old code indexed with its single RNG draw;
//   * kSpread / kBinPack — one O(R) scan of the counts per query. Public
//     clouds place at random, and every fleet-scale workload uses
//     kRandom, so these two keep no per-update state of their own.
//
// Queries return bitwise-identical servers to the historical linear scans
// (lowest index among minimal / maximal-below-cap occupancy; index-order
// candidates for kRandom), so placement sequences match the recorded
// pre-refactor goldens draw for draw (tests/provider_test.cpp).
#pragma once

#include <bit>
#include <vector>

namespace cleaks::cloud {

class PlacementIndex {
 public:
  PlacementIndex(int num_servers, int max_per_server)
      : num_servers_(num_servers),
        max_per_server_(max_per_server),
        non_full_(max_per_server > 0 ? num_servers : 0),
        counts_(static_cast<std::size_t>(num_servers), 0),
        fenwick_(static_cast<std::size_t>(num_servers) + 1, 0) {
    for (int server = 0; server < num_servers_; ++server) {
      if (max_per_server_ > 0) fenwick_add_(server, 1);
    }
  }

  /// One instance placed on `server`.
  void add(int server) {
    const int level = counts_[static_cast<std::size_t>(server)]++;
    if (level < max_per_server_ && level + 1 >= max_per_server_) {
      --non_full_;
      fenwick_add_(server, -1);
    }
  }

  /// One instance removed from `server`.
  void remove(int server) {
    const int level = counts_[static_cast<std::size_t>(server)]--;
    if (level >= max_per_server_ && level - 1 < max_per_server_) {
      ++non_full_;
      fenwick_add_(server, 1);
    }
  }

  [[nodiscard]] int count(int server) const {
    return counts_[static_cast<std::size_t>(server)];
  }
  /// Servers with room for another instance.
  [[nodiscard]] int non_full_count() const noexcept { return non_full_; }

  /// The r-th (0-based) non-full server in index order — the same server
  /// the old code's candidates[r] named. O(log R) Fenwick select.
  /// Precondition: 0 <= r < non_full_count().
  [[nodiscard]] int nth_non_full(int r) const {
    int pos = 0;
    int remaining = r + 1;
    for (int step = std::bit_floor(static_cast<unsigned>(num_servers_));
         step > 0; step >>= 1) {
      const int next = pos + step;
      if (next <= num_servers_ &&
          fenwick_[static_cast<std::size_t>(next)] < remaining) {
        pos = next;
        remaining -= fenwick_[static_cast<std::size_t>(next)];
      }
    }
    return pos;  // servers are 1-based inside the tree
  }

  /// kSpread: lowest-index server among those with the globally minimal
  /// occupancy (over ALL servers — the historical scan ignored the cap).
  [[nodiscard]] int lowest_min_occupancy() const {
    int best = 0;
    for (int server = 1; server < num_servers_; ++server) {
      if (count(server) < count(best)) best = server;
    }
    return best;
  }

  /// kBinPack: lowest-index server among those with the maximal occupancy
  /// that still has room; -1 when every server is full.
  [[nodiscard]] int lowest_max_occupancy_below_cap() const {
    int best = -1;
    for (int server = 0; server < num_servers_; ++server) {
      const int occupancy = count(server);
      if (occupancy >= max_per_server_) continue;
      if (best < 0 || occupancy > count(best)) best = server;
    }
    return best;
  }

 private:
  void fenwick_add_(int server, int delta) {
    for (int i = server + 1; i <= num_servers_; i += i & -i) {
      fenwick_[static_cast<std::size_t>(i)] += delta;
    }
  }

  int num_servers_;
  int max_per_server_;
  int non_full_;
  std::vector<int> counts_;
  std::vector<int> fenwick_;  ///< 1-based; prefix sums of the room flag
};

}  // namespace cleaks::cloud
