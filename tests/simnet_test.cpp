// simnet: links, topology/routing, fabric cost arithmetic, platforms, trace.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "simnet/fabric.hpp"
#include "simnet/fault.hpp"
#include "simnet/platform.hpp"
#include "simnet/topology.hpp"
#include "simnet/trace.hpp"

namespace mrl::simnet {
namespace {

Topology two_node_topo(int channels = 1) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"wire", /*bw=*/10.0, /*lat=*/1.0, channels});
  t.finalize();
  return t;
}

TEST(Link, ChannelMath) {
  LinkSpec s{"x", 100.0, 0.1, 4};
  EXPECT_DOUBLE_EQ(s.channel_gbs(), 25.0);
  // 25 GB/s = 25000 bytes/us -> 1 MiB takes ~41.9 us on one lane.
  EXPECT_NEAR(s.channel_ser_us(1 << 20), 41.94, 0.01);
  EXPECT_NEAR(s.full_ser_us(1 << 20), 10.49, 0.01);
}

TEST(LinkState, PicksEarliestLane) {
  LinkSpec spec{"x", 100.0, 0.1, 3};
  LinkState st(spec);
  st.set_lane_free_at(0, 5.0);
  st.set_lane_free_at(1, 2.0);
  st.set_lane_free_at(2, 9.0);
  EXPECT_EQ(st.earliest_lane(), 1);
  st.reset();
  EXPECT_EQ(st.earliest_lane(), 0);
}

TEST(Topology, RoutesAreMinHopAndDeterministic) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSocket);
  const int c = t.add_endpoint("c", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"ab", 10, 0.5, 1});
  t.add_link(b, c, LinkSpec{"bc", 10, 0.5, 1});
  t.add_link(a, c, LinkSpec{"ac", 10, 2.0, 1});
  t.finalize();
  EXPECT_EQ(t.route(a, c).size(), 1u);  // direct edge wins on hops
  EXPECT_EQ(t.route(a, b).size(), 1u);
  EXPECT_DOUBLE_EQ(t.route_latency_us(a, c), 2.0);
  EXPECT_DOUBLE_EQ(t.route_latency_us(a, b), 0.5);
  EXPECT_EQ(t.route(a, a).size(), 0u);
}

TEST(Topology, DisconnectedGraphAborts) {
  Topology t;
  t.add_endpoint("a", EndpointKind::kSocket);
  t.add_endpoint("b", EndpointKind::kSocket);
  EXPECT_DEATH(t.finalize(), "disconnected");
}

TEST(Fabric, SingleTransferCost) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, /*local_bw=*/20.0, /*local_lat=*/0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // at 10 GB/s: 1 us
  p.start_us = 5.0;
  p.sw_latency_us = 2.0;
  p.inj_gap_us = 0.05;
  const TransferResult r = f.transfer(p);
  // arrival = start + hop latency + serialization + software latency.
  EXPECT_DOUBLE_EQ(r.arrival_us, 5.0 + 1.0 + 1.0 + 2.0);
  EXPECT_DOUBLE_EQ(r.inject_free_us, 5.05);
}

TEST(Fabric, LocalTransferUsesLocalParams) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 0;
  p.bytes = 20000;  // at 20 GB/s: 1 us
  p.start_us = 0;
  p.sw_latency_us = 0.5;
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 0.5 + 0.1 + 1.0);
}

TEST(Fabric, ContentionSerializesOnOneLane) {
  const Topology t = two_node_topo(/*channels=*/1);
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // 1 us serialization
  p.start_us = 0.0;
  const TransferResult r1 = f.transfer(p);
  const TransferResult r2 = f.transfer(p);  // must queue behind r1
  EXPECT_DOUBLE_EQ(r1.arrival_us, 0.0 + 1.0 + 1.0);
  EXPECT_DOUBLE_EQ(r2.arrival_us, 1.0 + 1.0 + 1.0);
}

TEST(Fabric, ChannelsAllowConcurrentStreams) {
  const Topology t = two_node_topo(/*channels=*/2);
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;  // one lane = 5 GB/s -> 2 us serialization
  p.start_us = 0.0;
  const TransferResult r1 = f.transfer(p);
  const TransferResult r2 = f.transfer(p);  // second lane: no queueing
  EXPECT_DOUBLE_EQ(r1.arrival_us, r2.arrival_us);
  const TransferResult r3 = f.transfer(p);  // lanes busy: queues
  EXPECT_GT(r3.arrival_us, r1.arrival_us);
}

TEST(Fabric, StoreForwardSlowerThanCutThroughOnMultiHop) {
  Topology t;
  const int a = t.add_endpoint("a", EndpointKind::kSocket);
  const int b = t.add_endpoint("b", EndpointKind::kSwitch);
  const int c = t.add_endpoint("c", EndpointKind::kSocket);
  t.add_link(a, b, LinkSpec{"ab", 10, 0.5, 1});
  t.add_link(b, c, LinkSpec{"bc", 10, 0.5, 1});
  t.finalize();
  TransferParams p;
  p.src_ep = a;
  p.dst_ep = c;
  p.bytes = 100000;  // 10 us per hop at 10 GB/s
  Fabric ct(&t, RouteMode::kCutThrough, 20, 0.1);
  Fabric sf(&t, RouteMode::kStoreForward, 20, 0.1);
  const double t_ct = ct.transfer(p).arrival_us;
  const double t_sf = sf.transfer(p).arrival_us;
  EXPECT_DOUBLE_EQ(t_ct, 0.5 + 0.5 + 10.0);
  EXPECT_DOUBLE_EQ(t_sf, 0.5 + 10.0 + 0.5 + 10.0);
}

TEST(Fabric, PerStreamCapApplies)
{
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;
  p.per_stream_gbs = 5.0;  // cap below the 10 GB/s link
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 1.0 + 2.0);
}

TEST(Fabric, ResetClearsContention) {
  const Topology t = two_node_topo();
  Fabric f(&t, RouteMode::kCutThrough, 20.0, 0.1);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  p.bytes = 10000;
  (void)f.transfer(p);
  f.reset();
  EXPECT_EQ(f.total_msgs(), 0u);
  const TransferResult r = f.transfer(p);
  EXPECT_DOUBLE_EQ(r.arrival_us, 2.0);
}

// --- platform registry invariants, parameterized over Table I machines ---

class PlatformTest : public ::testing::TestWithParam<int> {
 protected:
  Platform p_ = Platform::all()[static_cast<std::size_t>(GetParam())];
};

TEST_P(PlatformTest, TopologyIsFinalizedAndConnected) {
  EXPECT_TRUE(p_.topology().finalized());
  EXPECT_GE(p_.topology().num_endpoints(), 2);
  EXPECT_GE(p_.topology().num_links(), 1);
}

TEST_P(PlatformTest, RankMappingRespectsCapacity) {
  const int n = p_.max_ranks();
  for (int rank = 0; rank < n; ++rank) {
    const int ep = p_.endpoint_of_rank(rank, n);
    ASSERT_GE(ep, 0);
    ASSERT_LT(ep, p_.topology().num_endpoints());
    const EndpointKind k = p_.topology().endpoint(ep).kind;
    EXPECT_TRUE(k == EndpointKind::kSocket || k == EndpointKind::kGpu);
  }
}

TEST_P(PlatformTest, LogGPParametersArePositive) {
  for (Runtime r : {Runtime::kTwoSidedMpi, Runtime::kOneSidedMpi,
                    Runtime::kShmem}) {
    const LogGP& g = p_.params(r);
    EXPECT_GT(g.L_us, 0) << to_string(r);
    EXPECT_GT(g.o_us, 0) << to_string(r);
    EXPECT_GE(g.g_us, 0) << to_string(r);
    EXPECT_GE(g.atomic_L_us, 0) << to_string(r);
  }
}

TEST_P(PlatformTest, FabricConstructs) {
  auto f = p_.make_fabric();
  ASSERT_NE(f, nullptr);
  EXPECT_EQ(&f->topology(), &p_.topology());
}

INSTANTIATE_TEST_SUITE_P(AllPlatforms, PlatformTest, ::testing::Range(0, 6),
                         [](const auto& info) {
                           return Platform::all()[static_cast<std::size_t>(
                                      info.param)]
                                      .name()
                                      .find("GPU") != std::string::npos
                                      ? "gpu" + std::to_string(info.param)
                                      : "cpu" + std::to_string(info.param);
                         });

TEST(PlatformCalibration, PerlmutterCpuPairBandwidthIs32) {
  const Platform p = Platform::perlmutter_cpu();
  // Rank 0 on socket 0, last rank on socket 1 (block distribution).
  EXPECT_DOUBLE_EQ(p.pair_peak_gbs(0, 127, 128), 128.0);
  const Topology& t = p.topology();
  EXPECT_DOUBLE_EQ(t.route_channel_gbs(0, 1), 32.0);
}

TEST(PlatformCalibration, SummitGpuDumbbellRouting) {
  const Platform p = Platform::summit_gpu();
  // Intra-island: 1 hop; cross-island: via both sockets (3 hops).
  const int g0 = p.endpoint_of_rank(0, 6);
  const int g1 = p.endpoint_of_rank(1, 6);
  const int g3 = p.endpoint_of_rank(3, 6);
  EXPECT_EQ(p.topology().route(g0, g1).size(), 1u);
  EXPECT_EQ(p.topology().route(g0, g3).size(), 3u);
  EXPECT_NEAR(p.hw_rtt_us(0, 1, 6), 0.5, 1e-9);
  EXPECT_NEAR(p.hw_rtt_us(0, 3, 6), 1.1, 1e-9);
}

TEST(PlatformCalibration, FrontierUltimateBoundIs36) {
  const Platform p = Platform::frontier_cpu();
  EXPECT_DOUBLE_EQ(p.topology().route_channel_gbs(0, 1), 36.0);
}

// --- route-equality oracle: the composed node-template topology against a
// flat all-pairs BFS over the fully expanded graph ---

/// The expanded machine as one flat graph, routed the way a single flat
/// topology would: BFS from every endpoint, neighbors in link insertion
/// order, first-found parent wins.
struct FlatGraph {
  std::vector<Endpoint> eps;
  std::vector<LinkSpec> links;
  std::vector<std::pair<int, int>> ends;

  int add_endpoint(std::string name, EndpointKind kind) {
    eps.push_back(Endpoint{std::move(name), kind});
    return static_cast<int>(eps.size()) - 1;
  }
  void add_link(int a, int b, const LinkSpec& spec) {
    links.push_back(spec);
    ends.emplace_back(a, b);
  }

  /// Min-hop route src -> dst of every pair, indexed src * N + dst.
  [[nodiscard]] std::vector<std::vector<DirectedLink>> all_pairs() const {
    const int n = static_cast<int>(eps.size());
    std::vector<std::vector<std::pair<int, DirectedLink>>> adj(
        static_cast<std::size_t>(n));
    for (int l = 0; l < static_cast<int>(ends.size()); ++l) {
      adj[ends[l].first].push_back({ends[l].second, DirectedLink{l, 0}});
      adj[ends[l].second].push_back({ends[l].first, DirectedLink{l, 1}});
    }
    std::vector<std::vector<DirectedLink>> routes(static_cast<std::size_t>(n) * n);
    for (int src = 0; src < n; ++src) {
      std::vector<int> parent(static_cast<std::size_t>(n), -1);
      std::vector<DirectedLink> via(static_cast<std::size_t>(n));
      std::vector<int> q{src};
      parent[src] = src;
      for (std::size_t h = 0; h < q.size(); ++h) {
        for (const auto& [peer, dl] : adj[q[h]]) {
          if (parent[peer] != -1) continue;
          parent[peer] = q[h];
          via[peer] = dl;
          q.push_back(peer);
        }
      }
      for (int dst = 0; dst < n; ++dst) {
        std::vector<DirectedLink>& r = routes[static_cast<std::size_t>(src) * n + dst];
        for (int v = dst; v != src; v = parent[v]) r.push_back(via[v]);
        std::reverse(r.begin(), r.end());
      }
    }
    return routes;
  }
};

/// Expands a single-node template `nodes` times, joining each node's NIC to
/// one switch over `uplink` — the multi-node machine written out endpoint by
/// endpoint and link by link.
FlatGraph expand(const Topology& tmpl, int nodes, const LinkSpec& uplink) {
  FlatGraph g;
  const int e = tmpl.num_endpoints();
  std::vector<int> nics;
  for (int k = 0; k < nodes; ++k) {
    const std::string tag = nodes == 1 ? "" : "n" + std::to_string(k) + ".";
    for (int i = 0; i < e; ++i) {
      const Endpoint ep = tmpl.endpoint(i);
      g.add_endpoint(tag + ep.name, ep.kind);
      if (ep.kind == EndpointKind::kNic) nics.push_back(k * e + i);
    }
    for (int l = 0; l < tmpl.num_links(); ++l) {
      g.add_link(k * e + tmpl.link_endpoint(l, 0), k * e + tmpl.link_endpoint(l, 1),
                 tmpl.link(l));
    }
  }
  if (nodes > 1) {
    const int sw = g.add_endpoint("switch", EndpointKind::kSwitch);
    for (const int nic : nics) g.add_link(nic, sw, uplink);
  }
  return g;
}

void expect_matches_flat(const Topology& t, const FlatGraph& g) {
  const int n = static_cast<int>(g.eps.size());
  ASSERT_EQ(t.num_endpoints(), n);
  ASSERT_EQ(t.num_links(), static_cast<int>(g.links.size()));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(t.endpoint(i).name, g.eps[i].name) << i;
    EXPECT_EQ(t.endpoint(i).kind, g.eps[i].kind) << i;
  }
  for (int l = 0; l < t.num_links(); ++l) {
    EXPECT_EQ(t.link_endpoint(l, 0), g.ends[l].first) << l;
    EXPECT_EQ(t.link_endpoint(l, 1), g.ends[l].second) << l;
    EXPECT_EQ(t.link(l).name, g.links[l].name) << l;
    EXPECT_EQ(t.link(l).bandwidth_gbs, g.links[l].bandwidth_gbs) << l;
    EXPECT_EQ(t.link(l).latency_us, g.links[l].latency_us) << l;
    EXPECT_EQ(t.link(l).channels, g.links[l].channels) << l;
  }
  const auto routes = g.all_pairs();
  for (int src = 0; src < n; ++src) {
    for (int dst = 0; dst < n; ++dst) {
      const std::vector<DirectedLink>& want =
          routes[static_cast<std::size_t>(src) * n + dst];
      const Route got = t.route(src, dst);
      ASSERT_EQ(got.size(), want.size()) << src << "->" << dst;
      double lat = 0.0;
      double chan = std::numeric_limits<double>::infinity();
      for (std::size_t h = 0; h < want.size(); ++h) {
        EXPECT_EQ(got[h].link, want[h].link) << src << "->" << dst << " hop " << h;
        EXPECT_EQ(got[h].dir, want[h].dir) << src << "->" << dst << " hop " << h;
        lat += g.links[want[h].link].latency_us;
        chan = std::min(chan, g.links[want[h].link].channel_gbs());
      }
      EXPECT_EQ(t.route_latency_us(src, dst), lat) << src << "->" << dst;
      EXPECT_EQ(t.route_channel_gbs(src, dst), chan) << src << "->" << dst;
    }
  }
}

TEST(TopologyOracle, RegistryPlatformsMatchFlatBfs) {
  for (const Platform& p : Platform::all()) {
    SCOPED_TRACE(p.name());
    expect_matches_flat(p.topology(), expand(p.topology(), 1, LinkSpec{}));
  }
}

TEST(TopologyOracle, MultiNodeCpuPlatformsMatchFlatBfs) {
  struct Case {
    Platform (*build)(int);
    LinkSpec uplink;
  };
  const Case cases[] = {
      {Platform::perlmutter_cpu, LinkSpec{"Slingshot", 25.0, 0.45, 1}},
      {Platform::frontier_cpu, LinkSpec{"Slingshot", 25.0, 0.45, 1}},
      {Platform::summit_cpu, LinkSpec{"Slingshot", 12.5, 0.60, 1}},
  };
  for (const Case& c : cases) {
    const Platform one = c.build(1);
    for (const int nodes : {1, 2, 3, 7}) {
      SCOPED_TRACE(one.name() + " x" + std::to_string(nodes));
      const Platform p = c.build(nodes);
      EXPECT_EQ(p.nodes(), nodes);
      expect_matches_flat(p.topology(), expand(one.topology(), nodes, c.uplink));
    }
  }
}

TEST(TopologyOracle, AdHocGraphsMatchFlatBfs) {
  // A chain with a shortcut and a second component joined late: BFS ties
  // must resolve by link insertion order.
  Topology t;
  for (int i = 0; i < 6; ++i) {
    t.add_endpoint("e" + std::to_string(i), EndpointKind::kSocket);
  }
  t.add_link(0, 1, LinkSpec{"a", 10, 0.5, 1});
  t.add_link(1, 2, LinkSpec{"b", 20, 0.25, 2});
  t.add_link(0, 3, LinkSpec{"c", 30, 0.125, 1});
  t.add_link(3, 2, LinkSpec{"d", 40, 1.0, 4});
  t.add_link(2, 4, LinkSpec{"e", 50, 0.75, 1});
  t.add_link(5, 4, LinkSpec{"f", 60, 0.3, 1});
  t.finalize();
  expect_matches_flat(t, expand(t, 1, LinkSpec{}));
}

TEST(PlatformScale, MillionRankPerlmutterRoutesByArithmetic) {
  // perlmutter_cpu(8000): E = 3 endpoints per node (milan0, milan1, nic),
  // L = 2 links per node (IF CPU-CPU, PCIe4.0), uplinks from 8000 * 2.
  const Platform p = Platform::perlmutter_cpu(8000);
  const Topology& t = p.topology();
  EXPECT_GE(p.max_ranks(), 1'000'000);
  EXPECT_EQ(t.num_endpoints(), 8000 * 3 + 1);
  EXPECT_EQ(t.num_links(), 8000 * 2 + 8000);
  const int a = 1;               // n0.milan1
  const int b = 7999 * 3 + 1;    // n7999.milan1
  EXPECT_EQ(t.endpoint(a).name, "n0.milan1");
  EXPECT_EQ(t.endpoint(b).name, "n7999.milan1");
  EXPECT_EQ(t.endpoint(8000 * 3).kind, EndpointKind::kSwitch);
  const Route r = t.route(a, b);
  const DirectedLink want[] = {
      {0, 1},             // n0 milan1 -> milan0 over IF
      {1, 0},             // n0 milan0 -> nic over PCIe
      {16000, 0},         // n0 uplink, NIC -> switch
      {16000 + 7999, 1},  // n7999 uplink, switch -> NIC
      {7999 * 2 + 1, 1},  // n7999 nic -> milan0
      {7999 * 2, 0},      // n7999 milan0 -> milan1
  };
  ASSERT_EQ(r.size(), 6u);
  for (std::size_t h = 0; h < r.size(); ++h) {
    EXPECT_EQ(r[h].link, want[h].link) << h;
    EXPECT_EQ(r[h].dir, want[h].dir) << h;
  }
  // Ranks 64 and N-1 sit on n0.milan1 and n7999.milan1; the round trip sums
  // IF, PCIe, two uplinks, PCIe, IF each way, in path order.
  const int n = p.max_ranks();
  EXPECT_EQ(p.endpoint_of_rank(64, n), a);
  EXPECT_EQ(p.endpoint_of_rank(n - 1, n), b);
  const double one_way = 0.25 + 0.35 + 0.45 + 0.45 + 0.35 + 0.25;
  EXPECT_EQ(p.hw_rtt_us(64, n - 1, n), one_way + one_way);
}

TEST(Trace, SummaryComputesMsgsPerSyncAndBandwidth) {
  Trace tr;
  tr.set_enabled(true);
  // Two epochs from rank 0: 3 msgs in epoch 0, 1 msg in epoch 1.
  tr.record({0, 1, 1000, 0.0, 2.0, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 0.5, 2.5, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 1.0, 3.0, OpKind::kSend, 0});
  tr.record({0, 1, 1000, 5.0, 10.0, OpKind::kSend, 1});
  const TraceSummary s = tr.summarize();
  EXPECT_EQ(s.num_msgs, 4u);
  EXPECT_EQ(s.num_epochs, 2u);
  EXPECT_DOUBLE_EQ(s.avg_msgs_per_sync, 2.0);
  EXPECT_DOUBLE_EQ(s.avg_msg_bytes, 1000.0);
  EXPECT_DOUBLE_EQ(s.span_us, 10.0);
  EXPECT_DOUBLE_EQ(s.sustained_gbs, 0.4);  // 4000 B / 10 us
  EXPECT_DOUBLE_EQ(s.avg_latency_us, (2.0 + 2.0 + 2.0 + 5.0) / 4.0);
}

TEST(Trace, KindFilteredSummary) {
  Trace tr;
  tr.set_enabled(true);
  tr.record({0, 1, 100, 0.0, 1.0, OpKind::kPut, 0});
  tr.record({0, 1, 8, 0.0, 1.0, OpKind::kSignal, 0});
  EXPECT_EQ(tr.summarize(OpKind::kPut).num_msgs, 1u);
  EXPECT_DOUBLE_EQ(tr.summarize(OpKind::kPut).avg_msg_bytes, 100.0);
  EXPECT_EQ(tr.summarize(OpKind::kAtomic).num_msgs, 0u);
}

TEST(Trace, DisabledTraceRecordsNothing) {
  Trace tr;
  tr.record({0, 1, 100, 0.0, 1.0, OpKind::kPut, 0});
  EXPECT_TRUE(tr.records().empty());
}

TEST(Trace, RecordStoreSurvivesChunkBoundariesAndClear) {
  // The chunked store must behave exactly like the vector it replaced:
  // indexed reads, in-order iteration, deep copies, and clear()+refill — all
  // across the 64Ki-record chunk boundary.
  Trace tr;
  tr.set_enabled(true);
  const std::size_t n = RecordStore::kChunkSize + RecordStore::kChunkSize / 2;
  for (std::size_t i = 0; i < n; ++i) {
    tr.record({static_cast<std::int32_t>(i % 97), 1, i, 0.0,
               static_cast<double>(i), OpKind::kPut, i / 7});
  }
  const RecordStore& rs = tr.records();
  ASSERT_EQ(rs.size(), n);
  EXPECT_EQ(rs[0].bytes, 0u);
  EXPECT_EQ(rs[RecordStore::kChunkSize - 1].bytes, RecordStore::kChunkSize - 1);
  EXPECT_EQ(rs[RecordStore::kChunkSize].bytes, RecordStore::kChunkSize);
  EXPECT_EQ(rs[n - 1].bytes, n - 1);
  std::size_t seen = 0;
  for (const MsgRecord& r : rs) {
    ASSERT_EQ(r.bytes, seen);
    ++seen;
  }
  EXPECT_EQ(seen, n);
  // Copies are deep: mutating the original must not show through.
  RecordStore copy = rs;
  ASSERT_EQ(copy.size(), n);
  tr.record({5, 6, 7777, 0.0, 1.0, OpKind::kSend, 0});
  EXPECT_EQ(copy.size(), n);
  EXPECT_EQ(copy[n - 1].bytes, n - 1);
  // clear() resets the logical size; refilled records land at index 0.
  tr.clear();
  EXPECT_TRUE(tr.records().empty());
  tr.record({2, 3, 42, 0.0, 1.0, OpKind::kAtomic, 0});
  ASSERT_EQ(tr.records().size(), 1u);
  EXPECT_EQ(tr.records()[0].bytes, 42u);
}

// --- fault injection ------------------------------------------------------

TEST(Fault, DefaultSpecIsBitIdenticalNoOp) {
  // A fabric carrying a default (empty) FaultSpec must reproduce the exact
  // arrival bits of a fabric built without one — this is the contract that
  // keeps every pre-fault CSV byte-identical.
  const Topology t = two_node_topo(/*channels=*/2);
  Fabric plain(&t, RouteMode::kCutThrough, 20.0, 0.1);
  Fabric faulted(&t, RouteMode::kCutThrough, 20.0, 0.1, FaultSpec{});
  Fabric sf_plain(&t, RouteMode::kStoreForward, 20.0, 0.1);
  Fabric sf_faulted(&t, RouteMode::kStoreForward, 20.0, 0.1, FaultSpec{});
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  for (int i = 0; i < 16; ++i) {
    p.bytes = 64ull << i;
    p.start_us = 0.37 * i;
    const TransferResult a = plain.transfer(p);
    const TransferResult b = faulted.transfer(p);
    EXPECT_EQ(a.arrival_us, b.arrival_us) << i;  // bitwise, not NEAR
    EXPECT_EQ(b.drops, 0) << i;
    EXPECT_EQ(sf_plain.transfer(p).arrival_us,
              sf_faulted.transfer(p).arrival_us)
        << i;
  }
}

TEST(Fault, HopFaultsAreSeededAndReplayable) {
  FaultSpec spec;
  spec.seed = 1234;
  spec.latency_jitter_us = 2.0;
  spec.drop_prob = 0.3;
  FaultModel a(spec, /*num_dlinks=*/4);
  FaultModel b(spec, /*num_dlinks=*/4);
  std::vector<FaultModel::HopFault> seq;
  for (int i = 0; i < 32; ++i) {
    const auto fa = a.next_hop_fault(1, 10.0 * i);
    const auto fb = b.next_hop_fault(1, 10.0 * i);
    EXPECT_EQ(fa.extra_latency_us, fb.extra_latency_us) << i;
    EXPECT_EQ(fa.drops, fb.drops) << i;
    seq.push_back(fa);
  }
  // reset() rewinds the ordinals: the same sequence replays exactly.
  a.reset();
  for (int i = 0; i < 32; ++i) {
    const auto fa = a.next_hop_fault(1, 10.0 * i);
    EXPECT_EQ(fa.extra_latency_us, seq[static_cast<std::size_t>(i)]
                                       .extra_latency_us)
        << i;
    EXPECT_EQ(fa.drops, seq[static_cast<std::size_t>(i)].drops) << i;
  }
  // A different link id draws from an independent substream.
  FaultModel c(spec, 4);
  bool any_differ = false;
  for (int i = 0; i < 32; ++i) {
    if (c.next_hop_fault(2, 10.0 * i).extra_latency_us !=
        seq[static_cast<std::size_t>(i)].extra_latency_us) {
      any_differ = true;
    }
  }
  EXPECT_TRUE(any_differ);
}

TEST(Fault, FaultsOnlySlowTransfersDown) {
  const Topology t = two_node_topo();
  FaultSpec spec = FaultSpec::at_intensity(0.8, 77);
  ASSERT_TRUE(spec.enabled());
  Fabric pristine(&t, RouteMode::kCutThrough, 20.0, 0.1);
  Fabric degraded(&t, RouteMode::kCutThrough, 20.0, 0.1, spec);
  TransferParams p;
  p.src_ep = 0;
  p.dst_ep = 1;
  bool any_slower = false;
  for (int i = 0; i < 64; ++i) {
    p.bytes = 1024 + 997 * i;
    p.start_us = 3.1 * i;
    const double t0 = pristine.transfer(p).arrival_us;
    const double t1 = degraded.transfer(p).arrival_us;
    EXPECT_GE(t1, t0) << i;  // faults never speed a message up
    if (t1 > t0) any_slower = true;
  }
  EXPECT_TRUE(any_slower);
}

TEST(Fault, BackoffSumsExponentiallyWithCap) {
  FaultSpec spec;
  spec.drop_prob = 0.1;
  spec.backoff_base_us = 10.0;
  spec.backoff_cap_us = 35.0;
  const FaultModel m(spec, 2);
  EXPECT_DOUBLE_EQ(m.backoff_us(0), 0.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(1), 10.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(2), 10.0 + 20.0);
  EXPECT_DOUBLE_EQ(m.backoff_us(3), 10.0 + 20.0 + 35.0);  // capped
}

TEST(Fault, StragglerScaleIsStablePerRank) {
  FaultSpec spec;
  spec.straggler_prob = 0.5;
  spec.straggler_factor = 2.0;
  const FaultModel m(spec, 2);
  int stragglers = 0;
  for (int r = 0; r < 64; ++r) {
    const double s = m.straggler_scale(r);
    EXPECT_EQ(s, m.straggler_scale(r)) << r;  // stable across queries
    EXPECT_TRUE(s == 1.0 || s == 2.0) << r;
    if (s > 1.0) ++stragglers;
  }
  EXPECT_GT(stragglers, 8);   // ~half of 64 at prob 0.5
  EXPECT_LT(stragglers, 56);
}

}  // namespace
}  // namespace mrl::simnet
