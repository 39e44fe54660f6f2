// Node/system topology: one node template (sockets, GPUs, NICs and the links
// between them) replicated `nodes` times, with the copies' NICs joined by a
// star switch. Routes are min-hop; only the template's all-pairs routes are
// stored, and a cross-node route is composed from two of them plus the two
// uplinks (DESIGN.md §12.1). Immutable after finalize(); the Fabric owns all
// mutable contention state.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "simnet/link.hpp"
#include "util/status.hpp"

namespace mrl::simnet {

/// What an endpoint is. Ranks/PEs are hosted only on kSocket/kGpu endpoints.
enum class EndpointKind { kSocket, kGpu, kNic, kSwitch };

std::string to_string(EndpointKind k);

struct Endpoint {
  std::string name;
  EndpointKind kind = EndpointKind::kSocket;
};

/// A directed link reference: undirected link `link` traversed in direction
/// `dir` (0 = a->b, 1 = b->a). Directed id = link*2 + dir.
struct DirectedLink {
  int link;
  int dir;
  [[nodiscard]] int id() const { return link * 2 + dir; }
};

/// Longest route inside one node template; finalize() checks it.
inline constexpr int kMaxLegHops = 7;

/// The directed links of one route, in path order: a template leg, up to
/// two uplinks, a template leg. A small value that reads the legs in place
/// from the Topology that made it, so it is valid while that Topology lives.
class Route {
 public:
  [[nodiscard]] std::size_t size() const {
    return static_cast<std::size_t>(head_n_ + up_n_ + tail_n_);
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] DirectedLink operator[](std::size_t i) const {
    int h = static_cast<int>(i);
    if (h < head_n_) return DirectedLink{head_[h].link + head_base_, head_[h].dir};
    h -= head_n_;
    if (h < up_n_) return up_[h];
    h -= up_n_;
    return DirectedLink{tail_[h].link + tail_base_, tail_[h].dir};
  }

  class Iterator {
   public:
    Iterator(const Route* r, std::size_t i) : r_(r), i_(i) {}
    DirectedLink operator*() const { return (*r_)[i_]; }
    Iterator& operator++() {
      ++i_;
      return *this;
    }
    bool operator!=(const Iterator& o) const { return i_ != o.i_; }

   private:
    const Route* r_;
    std::size_t i_;
  };
  [[nodiscard]] Iterator begin() const { return Iterator(this, 0); }
  [[nodiscard]] Iterator end() const { return Iterator(this, size()); }

 private:
  friend class Topology;

  const DirectedLink* head_ = nullptr;  // source-side leg, link ids + head_base_
  const DirectedLink* tail_ = nullptr;  // destination-side leg, + tail_base_
  int head_n_ = 0, head_base_ = 0;
  int tail_n_ = 0, tail_base_ = 0;
  int up_n_ = 0;
  DirectedLink up_[2] = {};
};

/// Immutable graph: a node template of E endpoints and L links, replicated
/// `nodes` times. Ids are arithmetic — node k's local endpoint i is k*E + i,
/// its local link j is k*L + j, node k's uplink is nodes*L + k (direction 0 =
/// NIC -> switch), and the switch is endpoint nodes*E.
class Topology {
 public:
  /// Adds an endpoint to the node template; returns its local id.
  int add_endpoint(std::string name, EndpointKind kind);

  /// Adds an undirected template link between endpoints a and b; returns its
  /// local link id.
  int add_link(int a, int b, LinkSpec spec);

  /// Replicates the template `nodes` times and links each copy's endpoint
  /// `nic` to one star switch over `uplink`. Copies are named "n<k>.<name>";
  /// with nodes == 1 the single node keeps its names and gets no switch.
  void replicate(int nodes, int nic, LinkSpec uplink);

  /// Computes the template's all-pairs min-hop routes (BFS; ties broken by
  /// link insertion order, so routing is deterministic). Must be called once
  /// before use.
  void finalize();

  [[nodiscard]] bool finalized() const { return finalized_; }
  [[nodiscard]] int nodes() const { return nodes_; }
  [[nodiscard]] int num_endpoints() const {
    return nodes_ * node_eps() + (nodes_ > 1 ? 1 : 0);
  }
  [[nodiscard]] int num_links() const {
    return nodes_ * node_links() + (nodes_ > 1 ? nodes_ : 0);
  }

  [[nodiscard]] Endpoint endpoint(int id) const;
  [[nodiscard]] const LinkSpec& link(int id) const;
  [[nodiscard]] int link_endpoint(int link_id, int side) const;  ///< side 0/1

  /// Directed links along the min-hop route src -> dst. Empty when src==dst.
  [[nodiscard]] Route route(int src, int dst) const;

  /// Sum of hardware latencies along the route, in path order (0 for
  /// src==dst).
  [[nodiscard]] double route_latency_us(int src, int dst) const;

  /// Min over the route of single-lane bandwidths; +inf for src==dst (local
  /// transfers are costed by the Platform instead).
  [[nodiscard]] double route_channel_gbs(int src, int dst) const;

  /// Endpoint ids of a given kind, in id order.
  [[nodiscard]] std::vector<int> endpoints_of_kind(EndpointKind k) const;

  /// One-line-per-link ASCII description (used by the Table I bench).
  [[nodiscard]] std::string describe() const;

 private:
  /// One template route, in local link ids.
  struct Leg {
    DirectedLink hops[kMaxLegHops] = {};
    int n = 0;
  };

  [[nodiscard]] int node_eps() const { return static_cast<int>(eps_.size()); }
  [[nodiscard]] int node_links() const {
    return static_cast<int>(links_.size());
  }
  [[nodiscard]] int switch_id() const { return nodes_ * node_eps(); }

  /// ep / E by one multiply: ceil(2^32 / E) is exact while ep * E < 2^32,
  /// which finalize() checks.
  [[nodiscard]] int node_of(int ep) const {
    return static_cast<int>((static_cast<std::uint64_t>(ep) * node_recip_) >> 32);
  }
  [[nodiscard]] const Leg& leg(int i, int j) const {
    return legs_[static_cast<std::size_t>(i) * eps_.size() +
                 static_cast<std::size_t>(j)];
  }

  /// Splits src -> dst into its template legs and uplinks, in path order:
  /// calls on_leg(leg, node) for a leg inside `node` and on_uplink(link id,
  /// dir) for an uplink. A route inside one node is a single leg; a route
  /// across nodes is the source node's leg to its NIC, both uplinks, and the
  /// destination node's leg from its NIC (the switch has no legs).
  template <typename OnLeg, typename OnUplink>
  void split(int src, int dst, OnLeg&& on_leg, OnUplink&& on_uplink) const;

  /// Calls hop(const LinkSpec&) for each hop of src -> dst in path order.
  template <typename Hop>
  void walk(int src, int dst, Hop&& hop) const;

  std::vector<Endpoint> eps_;                  // template endpoints
  std::vector<LinkSpec> links_;                // template links
  std::vector<std::pair<int, int>> ends_;      // template link ends
  std::vector<Leg> legs_;                      // template route i->j at i*E+j
  int nodes_ = 1;
  std::uint64_t node_recip_ = 0;  // ceil(2^32 / E), see node_of()
  int nic_ = -1;
  LinkSpec uplink_;
  bool finalized_ = false;
};

// Routing is on the fabric hot path, so it is inline.
template <typename OnLeg, typename OnUplink>
[[gnu::always_inline]] inline void Topology::split(int src, int dst,
                                                   OnLeg&& on_leg,
                                                   OnUplink&& on_uplink) const {
  MRL_CHECK(finalized_);
  MRL_CHECK(src >= 0 && src < num_endpoints());
  MRL_CHECK(dst >= 0 && dst < num_endpoints());
  if (nodes_ == 1) {
    on_leg(leg(src, dst), 0);
    return;
  }
  const int e = node_eps();
  const int na = node_of(src);  // the switch sits in "node" nodes_
  const int nb = node_of(dst);
  if (na == nb) {
    if (na < nodes_) on_leg(leg(src - na * e, dst - nb * e), na);
    return;
  }
  const int uplinks = nodes_ * node_links();
  if (na < nodes_) {
    on_leg(leg(src - na * e, nic_), na);
    on_uplink(uplinks + na, 0);
  }
  if (nb < nodes_) {
    on_uplink(uplinks + nb, 1);
    on_leg(leg(nic_, dst - nb * e), nb);
  }
}

template <typename Hop>
inline void Topology::walk(int src, int dst, Hop&& hop) const {
  split(
      src, dst,
      [&](const Leg& g, int) {
        for (int h = 0; h < g.n; ++h) hop(links_[g.hops[h].link]);
      },
      [&](int, int) { hop(uplink_); });
}

[[gnu::always_inline]] inline Route Topology::route(int src, int dst) const {
  Route r;
  split(
      src, dst,
      [&](const Leg& g, int node) {
        // A leg before any uplink is the head; one after them is the tail.
        if (r.up_n_ == 0) {
          r.head_ = g.hops;
          r.head_n_ = g.n;
          r.head_base_ = node * node_links();
        } else {
          r.tail_ = g.hops;
          r.tail_n_ = g.n;
          r.tail_base_ = node * node_links();
        }
      },
      [&](int link, int dir) { r.up_[r.up_n_++] = DirectedLink{link, dir}; });
  return r;
}

inline double Topology::route_latency_us(int src, int dst) const {
  double lat = 0.0;
  walk(src, dst, [&](const LinkSpec& s) { lat += s.latency_us; });
  return lat;
}

inline double Topology::route_channel_gbs(int src, int dst) const {
  double chan = std::numeric_limits<double>::infinity();
  walk(src, dst,
       [&](const LinkSpec& s) { chan = std::min(chan, s.channel_gbs()); });
  return chan;
}

}  // namespace mrl::simnet
