#include "simnet/topology.hpp"

#include <algorithm>
#include <sstream>

#include "util/status.hpp"
#include "util/units.hpp"

namespace mrl::simnet {

std::string to_string(EndpointKind k) {
  switch (k) {
    case EndpointKind::kSocket: return "socket";
    case EndpointKind::kGpu: return "gpu";
    case EndpointKind::kNic: return "nic";
    case EndpointKind::kSwitch: return "switch";
  }
  return "unknown";
}

int Topology::add_endpoint(std::string name, EndpointKind kind) {
  MRL_CHECK(!finalized_);
  eps_.push_back(Endpoint{std::move(name), kind});
  return node_eps() - 1;
}

int Topology::add_link(int a, int b, LinkSpec spec) {
  MRL_CHECK(!finalized_);
  MRL_CHECK(a >= 0 && a < node_eps());
  MRL_CHECK(b >= 0 && b < node_eps());
  MRL_CHECK(a != b);
  MRL_CHECK(spec.bandwidth_gbs > 0 && spec.channels >= 1);
  links_.push_back(std::move(spec));
  ends_.emplace_back(a, b);
  return node_links() - 1;
}

void Topology::replicate(int nodes, int nic, LinkSpec uplink) {
  MRL_CHECK(!finalized_ && nic_ < 0);
  MRL_CHECK(nodes >= 1);
  MRL_CHECK(nic >= 0 && nic < node_eps());
  MRL_CHECK(uplink.bandwidth_gbs > 0 && uplink.channels >= 1);
  nodes_ = nodes;
  nic_ = nic;
  uplink_ = std::move(uplink);
}

void Topology::finalize() {
  MRL_CHECK(!finalized_);
  const int n = node_eps();
  MRL_CHECK(n >= 1);
  constexpr std::uint64_t kTwo32 = std::uint64_t{1} << 32;
  MRL_CHECK_MSG(static_cast<std::uint64_t>(num_endpoints()) * n < kTwo32,
                "too many endpoints for node_of()");
  node_recip_ = (kTwo32 + n - 1) / n;
  legs_.assign(static_cast<std::size_t>(n) * n, Leg{});

  // BFS from each template endpoint. Neighbors are visited in link insertion
  // order and ties keep the first-found parent, so routes are deterministic.
  // The buffers are reused across sources.
  std::vector<int> dist(static_cast<std::size_t>(n));
  std::vector<int> parent(static_cast<std::size_t>(n));
  std::vector<DirectedLink> parent_link(static_cast<std::size_t>(n));
  std::vector<int> queue(static_cast<std::size_t>(n));
  for (int src = 0; src < n; ++src) {
    std::fill(dist.begin(), dist.end(), -1);
    dist[src] = 0;
    int head = 0, tail = 0;
    queue[tail++] = src;
    while (head < tail) {
      const int u = queue[head++];
      for (int l = 0; l < node_links(); ++l) {
        const auto [a, b] = ends_[l];
        if (a != u && b != u) continue;
        const int peer = a == u ? b : a;
        if (dist[peer] != -1) continue;
        dist[peer] = dist[u] + 1;
        parent[peer] = u;
        parent_link[peer] = DirectedLink{l, a == u ? 0 : 1};
        queue[tail++] = peer;
      }
    }
    for (int dst = 0; dst < n; ++dst) {
      if (dst == src) continue;
      MRL_CHECK_MSG(dist[dst] != -1, "topology is disconnected");
      MRL_CHECK_MSG(dist[dst] <= kMaxLegHops,
                    "template route exceeds kMaxLegHops");
      Leg& g = legs_[static_cast<std::size_t>(src) * n + dst];
      g.n = dist[dst];
      int h = g.n;
      for (int v = dst; v != src; v = parent[v]) g.hops[--h] = parent_link[v];
    }
  }
  finalized_ = true;
}

Endpoint Topology::endpoint(int id) const {
  MRL_CHECK(id >= 0 && id < num_endpoints());
  if (nodes_ == 1) return eps_[id];
  if (id == switch_id()) return Endpoint{"switch", EndpointKind::kSwitch};
  const int node = id / node_eps();
  const Endpoint& e = eps_[id - node * node_eps()];
  return Endpoint{"n" + std::to_string(node) + "." + e.name, e.kind};
}

const LinkSpec& Topology::link(int id) const {
  MRL_CHECK(id >= 0 && id < num_links());
  return id < nodes_ * node_links() ? links_[id % node_links()] : uplink_;
}

int Topology::link_endpoint(int link_id, int side) const {
  MRL_CHECK(link_id >= 0 && link_id < num_links());
  MRL_CHECK(side == 0 || side == 1);
  const int node_link_count = nodes_ * node_links();
  if (link_id >= node_link_count) {  // uplink: NIC (side 0) <-> switch
    const int node = link_id - node_link_count;
    return side == 0 ? node * node_eps() + nic_ : switch_id();
  }
  const int node = link_id / node_links();
  const auto [a, b] = ends_[link_id - node * node_links()];
  return node * node_eps() + (side == 0 ? a : b);
}

std::vector<int> Topology::endpoints_of_kind(EndpointKind k) const {
  std::vector<int> out;
  for (int node = 0; node < nodes_; ++node) {
    for (int i = 0; i < node_eps(); ++i) {
      if (eps_[i].kind == k) out.push_back(node * node_eps() + i);
    }
  }
  if (nodes_ > 1 && k == EndpointKind::kSwitch) out.push_back(switch_id());
  return out;
}

std::string Topology::describe() const {
  std::ostringstream os;
  os << "endpoints:\n";
  for (int i = 0; i < num_endpoints(); ++i) {
    const Endpoint e = endpoint(i);
    os << "  [" << i << "] " << e.name << " (" << to_string(e.kind) << ")\n";
  }
  os << "links:\n";
  for (int i = 0; i < num_links(); ++i) {
    const LinkSpec& s = link(i);
    os << "  " << endpoint(link_endpoint(i, 0)).name << " <-> "
       << endpoint(link_endpoint(i, 1)).name << "  " << s.name << "  "
       << format_gbs(s.bandwidth_gbs) << "/dir"
       << ", " << s.channels << " ch"
       << ", " << format_time_us(s.latency_us) << " hop\n";
  }
  return os.str();
}

}  // namespace mrl::simnet
