// Self-tests of the benchmark's output checks: the oracles on hand-computed
// cases, and every check failing on a deliberately corrupted engine output.
// Run: python3 perfbench/run.py --self-test

#include <cmath>
#include <cstdio>
#include <sstream>
#include <vector>

#include "hardware/catalog.hpp"
#include "io/state_io.hpp"
#include "oracle.hpp"
#include "serve/bandit_server.hpp"

namespace pb = perfbench;

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
  if (!ok) ++g_failures;
}

bool near(long double a, long double b) { return std::fabs(a - b) < 1e-12L; }

void ridge_oracle_by_hand() {
  // Points (0, 1) and (1, 3): Ã = [[1, 1], [1, 2]], b = [3, 4].
  pb::RidgeOracle o(1);
  const double x0[] = {0.0}, x1[] = {1.0}, x2[] = {2.0};
  o.add(x0, 1.0);
  o.add(x1, 3.0);
  // Ridge 0: w = 2, b = 1, so R̂(2) = 5.
  const auto ols = o.solve(0.0);
  expect(near(ols[0], 2.0L) && near(ols[1], 1.0L), "ridge 0 solves w = 2, b = 1");
  expect(near(pb::RidgeOracle::predict(ols, x2), 5.0L), "ridge 0 predicts 5 at x = 2");
  // Ridge 1: [[2, 1], [1, 3]] θ = [3, 4] gives w = 1, b = 1, R̂(2) = 3.
  const auto ridge = o.solve(1.0);
  expect(near(ridge[0], 1.0L) && near(ridge[1], 1.0L), "ridge 1 solves w = 1, b = 1");
  expect(near(pb::RidgeOracle::predict(ridge, x2), 3.0L), "ridge 1 predicts 3 at x = 2");
}

void tolerant_rule_by_hand() {
  const std::vector<double> preds = {10.0, 10.4, 12.0}, costs = {5.0, 3.0, 1.0};
  // Window 10 · 1.05 = 10.5 admits arms 0 and 1; arm 1 is cheaper.
  expect(pb::tolerant_arm(preds, costs, 0.05, 0.0) == 1, "5 % window picks the cheaper arm 1");
  // Window 10 + 2.5 admits all three; arm 2 is cheapest.
  expect(pb::tolerant_arm(preds, costs, 0.0, 2.5) == 2, "2.5 s window picks arm 2");
  expect(pb::tolerant_arm(preds, costs, 0.0, 0.0) == 0, "no tolerance picks the fastest");
  // A negative minimum gets no ratio slack: the window is just {arm 0}.
  const std::vector<double> neg = {-2.0, -1.5, 0.0};
  expect(pb::tolerant_arm(neg, costs, 0.5, 0.0) == 0, "negative R̂_min gets no ratio slack");
  // Equal costs keep the lower index.
  const std::vector<double> tie = {1.0, 1.0}, tie_cost = {2.0, 2.0};
  expect(pb::tolerant_arm(tie, tie_cost, 0.0, 0.0) == 0, "cost tie keeps the lower index");
  expect(pb::resource_cost(2, 16.0, 0) == 3.0 && pb::resource_cost(4, 16.0, 1) == 13.0,
         "resource cost is cpus + GB/16 + 8 GPUs");
}

void probe_regret_by_hand() {
  const std::vector<double> truth = {1, 2, 3, 5, 4, 6};  // two rows, three arms
  const std::vector<std::size_t> good = {0, 1}, poor = {0, 2};
  // Random regret: (2 - 1) + (5 - 4) = 2.
  const auto g = pb::probe_regret(truth, 3, good);
  const auto p = pb::probe_regret(truth, 3, poor);
  expect(g.greedy == 0.0 && g.random == 2.0, "probe regret by hand");
  expect(pb::greedy_beats_random(g), "(e) passes when greedy regret is lower");
  expect(!pb::greedy_beats_random(p), "(e) fails on a corrupted choice (regret 2 = random)");
}

/// Each check passes on a small real engine and fails once its output is
/// corrupted.
void checks_on_engine() {
  bw::serve::BanditServerConfig cfg;
  cfg.explore = false;
  cfg.bandit.policy.fit.ridge = 0.01;
  cfg.bandit.policy.tolerance.ratio = 0.05;
  bw::serve::BanditServer srv(bw::hw::ndp_catalog(), {"a", "b"}, cfg);
  std::vector<pb::RidgeOracle> oracle(3, pb::RidgeOracle(2));
  std::size_t fed = 0;
  for (int i = 0; i < 30; ++i) {
    const std::vector<double> x = {0.1 * i, 1.0 - 0.03 * i};
    const std::size_t arm = i % 3;
    const double y = 50.0 + 10.0 * arm + 20.0 * x[0] - 5.0 * x[1] + (i % 7) * 0.3;
    srv.observe_one({0, arm, x, y});
    oracle[arm].add(x, y);
    ++fed;
  }
  const std::vector<double> probe = {0.7, 0.4};
  std::vector<double> engine = srv.predictions(0, probe);
  std::vector<long double> want;
  for (const auto& o : oracle) want.push_back(pb::RidgeOracle::predict(o.solve(0.01), probe));
  expect(pb::predictions_match(engine, want), "(a) engine matches the ridge oracle");
  engine[1] += 2.0 * pb::kRidgeTolerance * (1.0 + std::fabs(engine[1]));
  expect(!pb::predictions_match(engine, want), "(a) fails on a corrupted prediction");

  std::vector<double> costs;
  for (const auto& spec : bw::hw::ndp_catalog().specs()) {
    costs.push_back(pb::resource_cost(spec.cpus, spec.memory_gb, spec.gpus));
  }
  std::vector<std::size_t> served = {srv.recommend_greedy(probe).arm};
  const std::vector<std::size_t> rule = {pb::tolerant_arm(srv.predictions(0, probe), costs, 0.05, 0.0)};
  expect(pb::decisions_match(served, rule), "(b) served decision follows the tolerant rule");
  served[0] = (served[0] + 1) % 3;
  expect(!pb::decisions_match(served, rule), "(b) fails on a corrupted decision");

  std::stringstream ss;
  bw::io::save_state(ss, srv, bw::io::Format::kBinary);
  auto loaded = bw::io::load_server_state(ss);
  std::vector<double> again = loaded.predictions(0, probe);
  const std::vector<double> orig = srv.predictions(0, probe);
  expect(pb::bit_identical(orig, again), "(c) binary round trip is bit-identical");
  again[2] = std::nextafter(again[2], 1e300);
  expect(!pb::bit_identical(orig, again), "(c) fails on a one-ulp corruption");

  expect(pb::count_matches(srv.num_observations(), fed), "(d) observation count matches");
  expect(!pb::count_matches(srv.num_observations() + 1, fed), "(d) fails on an off-by-one count");
}

}  // namespace

int main() {
  ridge_oracle_by_hand();
  tolerant_rule_by_hand();
  probe_regret_by_hand();
  checks_on_engine();
  std::printf("%s (%d failures)\n", g_failures == 0 ? "all passed" : "FAILED", g_failures);
  return g_failures == 0 ? 0 : 1;
}
