// bwbench — end-to-end benchmark of the BanditWare serving engine.
//
//   bwbench gen --workload W --seed N --history FILE
//       writes the workload's warm-start history as a .bwt run table.
//   bwbench run --workload W --seed N --seconds S --trace 0|1 --history FILE
//               [--spans FILE]
//       builds the engine from that history (timed cold, from process
//       start: setup_s), runs the workload, checks the engine's outputs and
//       prints one JSON line: end-to-end metrics with --trace 0, the
//       per-layer ledger with --trace 1.
//
// Inputs come only from the benchmark's own generator (splitmix64 on the
// seed); the engine is driven through its public API. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <barrier>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/banditware.hpp"
#include "core/frozen_model.hpp"
#include "io/run_table_io.hpp"
#include "io/state_io.hpp"
#include "linalg/gemm.hpp"
#include "linalg/rls.hpp"
#include "oracle.hpp"
#include "serve/bandit_server.hpp"

namespace pb = perfbench;
using bw::core::FeatureVector;
using bw::serve::BanditServer;
using bw::serve::BanditServerConfig;
using bw::serve::ServeDecision;
using bw::serve::ServeObservation;

namespace {

const auto g_process_start = std::chrono::steady_clock::now();

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_since(std::int64_t t0) { return (now_ns() - t0) * 1e-9; }

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_maxrss / 1024.0;
}

/// Progress on standard error: phase name, seconds since process start and
/// the memory high-water mark so far.
void phase(const char* name) {
  std::cerr << "phase " << name << " at "
            << std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             g_process_start).count()
            << " s, peak " << peak_rss_mib() << " MiB\n";
}

// ------------------------------------------------------------------ inputs

/// splitmix64 — the benchmark's own generator, so no change to the
/// program's RNG can change a workload.
struct Rand {
  std::uint64_t s;
  explicit Rand(std::uint64_t seed) : s(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  double uniform() { return (next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }
  double normal() {
    const double u1 = 1.0 - uniform();
    const double u2 = uniform();
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(6.283185307179586 * u2);
  }
};

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  Rand r(a * 0x100000001b3ULL ^ (b + 0x632be59bd9b4e019ULL));
  return r.next();
}

/// A workload's fixed shape: catalog, features and ground truth. The truth
/// is linear per arm, mean(a, x) = b_a + w_a·x, and does not depend on the
/// seed; the seed draws the jobs, the noise and the engine's RNG streams.
struct Shape {
  std::string name;
  std::vector<bw::hw::HardwareSpec> specs;
  std::vector<std::string> features;
  std::vector<double> lo, hi;
  std::vector<std::vector<double>> w;
  std::vector<double> b;
  double noise_rel = 0.05;  ///< noise sd = noise_rel·mean + noise_abs
  double noise_abs = 1.0;
  std::size_t history_rows = 0;
  double ridge = 1e-2;  ///< the engine's explicit ridge prior
  BanditServerConfig config;

  std::size_t arms() const { return specs.size(); }
  std::size_t dim() const { return features.size(); }
  double mean(std::size_t arm, const FeatureVector& x) const {
    double m = b[arm];
    for (std::size_t k = 0; k < x.size(); ++k) m += w[arm][k] * x[k];
    return m;
  }
  FeatureVector draw_x(Rand& r) const {
    FeatureVector x(dim());
    for (std::size_t k = 0; k < dim(); ++k) x[k] = r.uniform(lo[k], hi[k]);
    return x;
  }
  double draw_y(std::size_t arm, const FeatureVector& x, Rand& r) const {
    const double m = mean(arm, x);
    return m + (noise_rel * m + noise_abs) * r.normal();
  }
  double cost(std::size_t arm) const {
    return pb::resource_cost(specs[arm].cpus, specs[arm].memory_gb, specs[arm].gpus);
  }
};

/// Amdahl speed-up of a parallel fraction p on c cores.
double amdahl(double p, double c) { return 1.0 / ((1.0 - p) + p / c); }

Shape make_shape(const std::string& workload) {
  Shape s;
  s.name = workload;
  auto& cfg = s.config;
  cfg.bandit.policy.initial_epsilon = 1.0;  // the paper's defaults
  cfg.bandit.policy.decay = 0.99;
  if (workload == "paper-online") {
    // Experiment 3 shape: matrix squaring on five NDP-style settings.
    // Features: size (thousands), sparsity, value range (hundreds), tile (k).
    s.features = {"size_k", "sparsity", "range_h", "tile_k"};
    s.lo = {0.5, 0.0, 0.1, 0.032};
    s.hi = {12.5, 0.9, 10.0, 0.256};
    for (int i = 0; i < 5; ++i) {
      const int cpus = 2 + i;
      s.specs.push_back({"M" + std::to_string(i), cpus, 4.0 * cpus, 0});
      const double speed = amdahl(0.8, cpus);
      s.w.push_back({60.0 / speed, -10.0 / speed, 2.0 / speed, 15.0 / speed});
      s.b.push_back(2.0 + 1.5 * cpus);
    }
    s.history_rows = 2520;  // the previous campaign: row i ran on arm i mod 5
    cfg.num_shards = 4;
    cfg.sharding = bw::serve::ShardingPolicy::kRoundRobin;
    cfg.sync_every = 1;
    cfg.explore = true;
  } else if (workload == "big-catalog") {
    // 4096 synthetic arms (the snapshot cap), d = 8.
    Rand fixed(0xb16ca7a1);
    s.features.clear();
    for (int k = 0; k < 8; ++k) {
      s.features.push_back("f" + std::to_string(k));
      s.lo.push_back(0.0);
      s.hi.push_back(1.0);
    }
    std::vector<double> base(8);
    for (double& v : base) v = fixed.uniform(10.0, 50.0);
    for (int i = 0; i < 4096; ++i) {
      const int cpus = 1 + i % 64;
      const double mem = 4.0 * (1 + (i / 64) % 16);
      const int gpus = (i / 1024) % 4;
      char name[16];
      std::snprintf(name, sizeof name, "A%04d", i);
      s.specs.push_back({name, cpus, mem, gpus});
      const double speed = amdahl(0.9, cpus) * (1.0 + 0.5 * gpus) *
                           std::exp(0.2 * fixed.normal());
      std::vector<double> w(8);
      for (int k = 0; k < 8; ++k) w[k] = base[k] * fixed.uniform(0.8, 1.2) / speed;
      s.w.push_back(w);
      s.b.push_back(1.0 + 0.05 * cpus + 2.0 * gpus);
    }
    s.history_rows = 64;  // arm a observes two of the 64 rows
    // A 5 % window: among arms within 5 % of the fastest prediction the
    // cheapest is served, so the read path runs the whole tolerant rule.
    cfg.bandit.policy.tolerance.ratio = 0.05;
    cfg.num_shards = 1;
    cfg.explore = false;
  } else if (workload == "shared-reads") {
    // Experiment 2 shape: BP3D-like fire runs on the three NDP settings.
    s.features = {"area", "fuel_moisture", "wind_speed", "wind_dir",
                  "canopy", "duration", "resolution"};
    s.lo.assign(7, 0.0);
    s.hi.assign(7, 1.0);
    const std::vector<double> work = {300.0, 40.0, 90.0, 10.0, 60.0, 120.0, 150.0};
    const std::vector<std::pair<int, double>> ndp = {{2, 16.0}, {3, 24.0}, {4, 16.0}};
    for (std::size_t i = 0; i < ndp.size(); ++i) {
      s.specs.push_back({"H" + std::to_string(i), ndp[i].first, ndp[i].second, 0});
      const double speed = amdahl(0.75, ndp[i].first) * (1.0 + ndp[i].second / 160.0);
      std::vector<double> w(7);
      for (int k = 0; k < 7; ++k) w[k] = work[k] / speed;
      s.w.push_back(w);
      s.b.push_back(20.0 + 15.0 * ndp[i].first);
    }
    s.history_rows = 3000;  // row i ran once, on arm i mod 3
    cfg.num_shards = 1;
    cfg.explore = true;
    cfg.bandit.policy_kind = bw::core::PolicyKind::kLinUcb;
    // The confidence width x̃ᵀPx̃ has no noise scale; alpha supplies it
    // (about the runtime noise, in seconds), so LinUCB keeps exploring.
    cfg.bandit.alpha = 20.0;
  } else {
    throw std::invalid_argument("unknown workload '" + workload + "'");
  }
  cfg.bandit.policy.fit.ridge = s.ridge;
  return s;
}

/// Jobs drawn from the seed. A job's true mean runtime on an arm comes from
/// the shape; its observed runtime on any arm is a pure function of (job
/// seed, arm), so any served arm can be fed back without storing jobs x arms
/// values (4096 arms would make the benchmark's own tables the largest
/// memory in the process).
struct Jobs {
  const Shape* shape = nullptr;
  std::vector<FeatureVector> xs;
  std::vector<std::uint64_t> seeds;
  std::vector<double> best_mean;

  double mean(std::size_t j, std::size_t arm) const { return shape->mean(arm, xs[j]); }
  double y(std::size_t j, std::size_t arm) const {
    Rand r(seeds[j] ^ (0x9e3779b97f4a7c15ULL * (arm + 1)));
    return shape->draw_y(arm, xs[j], r);
  }
  double regret(std::size_t j, std::size_t arm) const { return mean(j, arm) - best_mean[j]; }
};

Jobs make_jobs(const Shape& s, std::size_t n, std::uint64_t seed) {
  Rand r(seed);
  Jobs jobs;
  jobs.shape = &s;
  for (std::size_t j = 0; j < n; ++j) {
    jobs.xs.push_back(s.draw_x(r));
    jobs.seeds.push_back(r.next());
    double best = s.mean(0, jobs.xs.back());
    for (std::size_t a = 1; a < s.arms(); ++a) best = std::min(best, s.mean(a, jobs.xs.back()));
    jobs.best_mean.push_back(best);
  }
  return jobs;
}

/// Which arms each history row feeds in the warm start, one pass over the
/// arms.
std::vector<std::vector<std::size_t>> history_plan(const Shape& s) {
  const std::size_t R = s.history_rows;
  std::vector<std::vector<std::size_t>> plan(R);
  if (s.name == "big-catalog") {
    // Arm a observes rows a mod R and (a mod R + 1 + (a/R) mod (R-1)) mod R.
    for (std::size_t a = 0; a < s.arms(); ++a) {
      const std::size_t r1 = a % R;
      const std::size_t r2 = (r1 + 1 + (a / R) % (R - 1)) % R;
      plan[r1].push_back(a);
      plan[r2].push_back(a);
    }
  } else {
    for (std::size_t row = 0; row < R; ++row) plan[row].push_back(row % s.arms());
  }
  return plan;
}

enum class Stream : std::uint64_t { kHistory = 1, kLearn, kTraffic, kEngine };

/// The probe set for rmse_s and the checks is fixed: the same 512 contexts
/// for every seed, so seeds change what the engine learned, not where it is
/// scored.
constexpr std::uint64_t kProbeSeed = 0x5eed0f9a0be5ULL;

std::uint64_t stream_seed(std::uint64_t seed, Stream st, std::uint64_t i = 0) {
  return mix(mix(seed, static_cast<std::uint64_t>(st)), i);
}

void write_history(const Shape& s, std::uint64_t seed, const std::string& path) {
  const Jobs h = make_jobs(s, s.history_rows, stream_seed(seed, Stream::kHistory));
  std::ofstream os(path, std::ios::binary);
  if (!os) throw std::runtime_error("cannot write " + path);
  bw::io::RunTableWriter writer(os, s.features, bw::hw::HardwareCatalog(s.specs));
  std::vector<double> runtimes(s.arms());
  for (std::size_t j = 0; j < h.xs.size(); ++j) {
    for (std::size_t a = 0; a < s.arms(); ++a) runtimes[a] = h.y(j, a);
    writer.append(h.xs[j], runtimes);
  }
  writer.finish();
  if (!os) throw std::runtime_error("write failed: " + path);
}

// ------------------------------------------------------------------ timing

/// Rates of many short segments; the reported figure is the fastest
/// segment (README, "Estimators").
struct Best {
  double rate = 0.0;  ///< ops per second of the fastest segment
  std::size_t segments = 0;
  std::vector<double> all;
  void add(double ops, double seconds) {
    if (seconds > 0.0) rate = std::max(rate, ops / seconds);
    if (seconds > 0.0) all.push_back(ops / seconds);
    ++segments;
  }
  /// The rate that a share `f` of the segments stays below: used where the
  /// fastest segments are not the same workload (shared-reads: a segment in
  /// which some clients were off-CPU meets less contention, so its rate is
  /// high for another reason).
  double quantile(double f) const {
    std::vector<double> v = all;
    if (v.empty()) return 0.0;
    const auto k = static_cast<std::ptrdiff_t>(f * static_cast<double>(v.size() - 1));
    std::nth_element(v.begin(), v.begin() + k, v.end());
    return v[static_cast<std::size_t>(k)];
  }
  void dump(const char* name) const {
    std::vector<double> v = all;
    std::sort(v.begin(), v.end());
    if (v.empty()) return;
    auto q = [&](double f) { return v[static_cast<std::size_t>(f * (v.size() - 1))]; };
    std::cerr << "segments " << name << " n=" << v.size() << " p25=" << q(0.25) << " p50=" << q(0.5) << " p75=" << q(0.75)
              << " p90=" << q(0.9) << " p97=" << q(0.97) << " max=" << v.back() << '\n';
  }
};


/// Runs `segment` (which returns the ops it did) until `budget_s` passes and
/// returns the fastest segment's ops per second.
double best_rate(double budget_s, const std::function<double()>& segment) {
  Best best;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    const std::int64_t t0 = now_ns();
    const double ops = segment();
    best.add(ops, (now_ns() - t0) * 1e-9);
  } while (now_ns() < t_end || best.segments < 3);
  return best.rate;
}

/// Ops per ~13 ms segment for a call that takes `one_call_s`.
std::size_t reps_for(double one_call_s) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(0.013 / std::max(one_call_s, 1e-9)));
}

// ------------------------------------------------------------------ tracing

/// In-memory spans from the benchmark's own calls into each layer.
struct Span {
  const char* name;
  std::int64_t start, end;
  std::int32_t parent;
};

struct Tracer {
  bool on = false;
  std::vector<Span> spans;
  std::vector<std::int32_t> open;

  std::int32_t begin(const char* name) {
    spans.push_back({name, now_ns(), 0, open.empty() ? -1 : open.back()});
    open.push_back(static_cast<std::int32_t>(spans.size() - 1));
    return open.back();
  }
  void end() {
    spans[open.back()].end = now_ns();
    open.pop_back();
  }
};

thread_local Tracer* t_tracer = nullptr;

struct Scope {
  Tracer* t;
  explicit Scope(const char* name) : t(t_tracer != nullptr && t_tracer->on ? t_tracer : nullptr) {
    if (t != nullptr) t->begin(name);
  }
  ~Scope() {
    if (t != nullptr) t->end();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
};

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::nth_element(v.begin(), v.begin() + v.size() / 2, v.end());
  return v[v.size() / 2];
}

/// Median duration (ns) of the spans called `name`, divided by `per`.
double span_median_ns(const std::vector<Tracer>& ts, const std::string& name, double per = 1.0) {
  std::vector<double> d;
  for (const auto& t : ts) {
    for (const auto& s : t.spans) {
      if (name == s.name) d.push_back(static_cast<double>(s.end - s.start) / per);
    }
  }
  return median(d);
}

/// Wall time of every root span minus the time its direct children cover.
double residue_seconds(const std::vector<Tracer>& ts) {
  double residue = 0.0;
  for (const auto& t : ts) {
    std::vector<std::int64_t> child(t.spans.size(), 0);
    for (const auto& s : t.spans) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      if (t.spans[i].parent < 0) residue += (t.spans[i].end - t.spans[i].start - child[i]) * 1e-9;
    }
  }
  return residue;
}

constexpr std::size_t kSpansWritten = 100000;

void write_spans(const std::vector<Tracer>& ts, const std::string& path) {
  if (path.empty()) return;
  std::ofstream os(path);
  std::map<std::string, std::pair<std::int64_t, std::size_t>> self;
  os << "thread,id,name,start_ns,end_ns,parent\n";
  for (std::size_t th = 0; th < ts.size(); ++th) {
    const auto& sp = ts[th].spans;
    std::vector<std::int64_t> child(sp.size(), 0);
    for (const auto& s : sp) {
      if (s.parent >= 0) child[s.parent] += s.end - s.start;
    }
    for (std::size_t i = 0; i < sp.size(); ++i) {
      // The file keeps each thread's first kSpansWritten spans; the self-time
      // summary below covers all of them.
      if (i < kSpansWritten) {
        os << th << ',' << i << ',' << sp[i].name << ',' << sp[i].start << ',' << sp[i].end
           << ',' << sp[i].parent << '\n';
      }
      auto& e = self[sp[i].name];
      e.first += sp[i].end - sp[i].start - child[i];
      ++e.second;
    }
  }
  for (const auto& [name, e] : self) {
    os << "# self_time name=" << name << " total_ns=" << e.first << " count=" << e.second << '\n';
  }
}

// ------------------------------------------------------------------ engine helpers

struct Tally {
  std::vector<pb::RidgeOracle> arms;
  std::size_t total = 0;
  Tally(std::size_t n_arms, std::size_t dim) : arms(n_arms, pb::RidgeOracle(dim)) {}
  void add(std::size_t arm, const FeatureVector& x, double y) {
    arms[arm].add(x, y);
    ++total;
  }
};

struct Setup {
  std::unique_ptr<BanditServer> server;
  std::string history_bytes;  ///< the .bwt file, kept for the io ledger
  double seconds = 0.0;
};

/// Set-up as a restarting service does it: read the history through the
/// run-table reader, build the engine, warm-start it with observe_batch and
/// serve the first decision. Timed from process start. The benchmark's own
/// tally of what was fed is made afterwards, from a second read of the file,
/// so that the timed set-up holds only the program's work and the file read.
Setup warm_start(const Shape& s, const std::string& path, Tally& tally) {
  Setup out;
  const auto plan = history_plan(s);
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read history " + path);
  bw::io::RunTableReader reader(f);
  out.server = std::make_unique<BanditServer>(reader.catalog(), reader.feature_names(), s.config);
  BanditServer& srv = *out.server;
  std::vector<ServeObservation> batch;
  FeatureVector x;
  std::vector<double> runtimes;
  std::size_t row = 0;
  auto flush = [&] {
    srv.observe_batch(batch);
    batch.clear();
  };
  while (reader.next_row(x, runtimes)) {
    for (std::size_t arm : plan.at(row)) {
      batch.push_back({batch.size() % srv.num_shards(), arm, x, runtimes[arm]});
      if (batch.size() == 64 && s.name != "big-catalog") flush();
    }
    ++row;
  }
  if (!batch.empty()) flush();
  if (row != s.history_rows || reader.truncated()) throw std::runtime_error("history truncated");
  volatile std::size_t first = srv.recommend_greedy(x).arm;
  (void)first;
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                              g_process_start).count();

  // Kept for the io ledger, and read again here for the tally.
  std::ifstream again(path, std::ios::binary);
  out.history_bytes.assign(std::istreambuf_iterator<char>(again), {});
  std::istringstream is(out.history_bytes);
  bw::io::RunTableReader tally_reader(is);
  for (row = 0; tally_reader.next_row(x, runtimes); ++row) {
    for (std::size_t arm : plan.at(row)) tally.add(arm, x, runtimes[arm]);
  }
  return out;
}

/// Server copy carrying `model`, with the given serving config.
std::unique_ptr<BanditServer> copy_with(const Shape& s, const bw::core::BanditWare& model,
                                        BanditServerConfig cfg) {
  auto srv = std::make_unique<BanditServer>(bw::hw::HardwareCatalog(s.specs), s.features, cfg);
  srv->adopt_model(model);
  return srv;
}

// ------------------------------------------------------------------ checks

struct Checks {
  std::map<std::string, bool> passed;
  void record(const std::string& name, bool ok) {
    auto [it, fresh] = passed.emplace(name, ok);
    if (!fresh) it->second = it->second && ok;
    if (!ok) std::cerr << "check failed: " << name << '\n';
  }
  bool all() const {
    for (const auto& [name, ok] : passed) {
      if (!ok) return false;
    }
    return !passed.empty();
  }
};

/// (a) every shard's predictions match the per-arm ridge oracle.
void check_ridge(const Shape& s, const BanditServer& srv, const Tally& tally,
                 const std::vector<FeatureVector>& probe, Checks& checks) {
  std::vector<std::vector<long double>> theta;
  for (const auto& o : tally.arms) theta.push_back(o.solve(s.ridge));
  for (std::size_t shard = 0; shard < srv.num_shards(); ++shard) {
    for (const auto& x : probe) {
      std::vector<long double> want(s.arms());
      for (std::size_t a = 0; a < s.arms(); ++a) want[a] = pb::RidgeOracle::predict(theta[a], x);
      checks.record("a.ridge", pb::predictions_match(srv.predictions(shard, x), want));
    }
  }
}

/// (b) greedy reads follow the tolerant rule on predictions(); returns the
/// served arms for (e).
std::vector<std::size_t> check_tolerant(const Shape& s, BanditServer& srv,
                                        const std::vector<FeatureVector>& probe,
                                        Checks& checks) {
  std::vector<double> costs(s.arms());
  for (std::size_t a = 0; a < s.arms(); ++a) costs[a] = s.cost(a);
  const auto& tol = s.config.bandit.policy.tolerance;
  std::vector<std::size_t> served, want;
  for (const auto& x : probe) {
    const ServeDecision d = srv.recommend_greedy(x);
    served.push_back(d.arm);
    want.push_back(pb::tolerant_arm(srv.predictions(d.shard, x), costs, tol.ratio, tol.seconds));
  }
  checks.record("b.tolerant", pb::decisions_match(served, want));
  return served;
}

/// (e) learned greedy regret on the probe set beats uniform random. Row by
/// row: a 512 x 4096 table of true means would be the largest allocation in
/// a big-catalog run and would sit in its peak_rss_mib.
void check_regret(const Jobs& probe, const std::vector<std::size_t>& served, Checks& checks) {
  pb::ProbeRegret sum;
  std::vector<double> truth(probe.shape->arms());
  for (std::size_t j = 0; j < served.size(); ++j) {
    for (std::size_t a = 0; a < truth.size(); ++a) truth[a] = probe.mean(j, a);
    const pb::ProbeRegret row = pb::probe_regret(truth, truth.size(), std::span(&served[j], 1));
    sum.greedy += row.greedy;
    sum.random += row.random;
  }
  checks.record("e.beats_random", pb::greedy_beats_random(sum));
}

/// (c) load(save(engine)) is bit-identical; text and binary agree.
void check_snapshots(BanditServer& srv, const std::vector<FeatureVector>& probe,
                     Checks& checks) {
  auto reload = [&](bw::io::Format f) {
    std::stringstream ss;
    bw::io::save_state(ss, srv, f);
    return std::make_unique<BanditServer>(bw::io::load_server_state(ss));
  };
  auto bin = reload(bw::io::Format::kBinary);
  auto txt = reload(bw::io::Format::kText);
  for (const auto& x : probe) {
    for (std::size_t shard = 0; shard < srv.num_shards(); ++shard) {
      const auto p = srv.predictions(shard, x);
      checks.record("c.binary_roundtrip", pb::bit_identical(p, bin->predictions(shard, x)));
      checks.record("c.text_equals_binary",
                    pb::bit_identical(txt->predictions(shard, x), bin->predictions(shard, x)));
    }
    const ServeDecision a = srv.recommend_greedy(x);
    const ServeDecision b = bin->recommend_greedy(x);
    const double pa[] = {a.predicted_runtime_s, static_cast<double>(a.arm)};
    const double pbb[] = {b.predicted_runtime_s, static_cast<double>(b.arm)};
    checks.record("c.binary_roundtrip", pb::bit_identical(pa, pbb));
  }
}

double rmse(const Shape& s, const BanditServer& srv, const Jobs& probe) {
  double sq = 0.0;
  for (std::size_t j = 0; j < probe.xs.size(); ++j) {
    const auto p = srv.predictions(0, probe.xs[j]);
    for (std::size_t a = 0; a < s.arms(); ++a) {
      const double e = p[a] - probe.mean(j, a);
      sq += e * e;
    }
  }
  return std::sqrt(sq / static_cast<double>(probe.xs.size() * s.arms()));
}

// ------------------------------------------------------------------ results

struct Snapshots {
  Best save, load;
  std::size_t reps = 0, ops = 0;
  std::string bytes;
  void sample(BanditServer& srv);
};

struct Result {
  std::map<std::string, std::pair<double, std::string>> metrics;
  Snapshots snaps;
  std::size_t attempted = 0;
  Checks checks;
  // Traced-run inputs for the ledger.
  std::vector<Tracer> tracers;
  std::map<std::string, double> layer;  ///< per-layer figures measured in the workload
  std::vector<ServeObservation> replay_obs;
  std::vector<FeatureVector> replay_xs;
  std::size_t batch = 1;

  void put(const std::string& name, double v, const std::string& unit) {
    metrics[name] = {v, unit};
  }
};

/// Binary snapshot save and load timings: each sample() is one segment of
/// saves then one of loads (of the snapshot just saved), ~13 ms each.
void Snapshots::sample(BanditServer& srv) {
  // The snapshot moves between the streams and `bytes` without a copy, and
  // a save writes into the capacity the last one left, so the segments time
  // the codec rather than the benchmark's buffer growth.
  auto save_once = [&] {
    bytes.clear();
    std::ostringstream os(std::move(bytes));
    bw::io::save_state(os, srv, bw::io::Format::kBinary);
    bytes = std::move(os).str();
  };
  auto load_once = [&] {
    std::istringstream is(std::move(bytes));
    const std::size_t shards = bw::io::load_server_state(is).num_shards();
    bytes = std::move(is).str();
    return shards;
  };
  if (reps == 0) {
    save_once();
    const std::int64_t t0 = now_ns();
    load_once();
    reps = reps_for(seconds_since(t0));
  }
  std::int64_t t = now_ns();
  for (std::size_t i = 0; i < 2 * reps; ++i) save_once();
  save.add(2.0 * reps, seconds_since(t));
  std::size_t sink = 0;
  t = now_ns();
  for (std::size_t i = 0; i < reps; ++i) sink += load_once();
  load.add(static_cast<double>(reps), seconds_since(t));
  ops += 3 * reps;
  if (sink == 0) std::cerr << "";
}

/// Snapshot timings of the final engine (added to any samples the traffic
/// phase took), then peak memory.
void snapshot_metrics(BanditServer& srv, double budget_s, Result& res) {
  phase("traffic done");
  Snapshots& snaps = res.snaps;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(budget_s * 1e9);
  do {
    snaps.sample(srv);
  } while (now_ns() < t_end || snaps.load.segments < 3);
  res.attempted += snaps.ops;
  snaps.save.dump("snapshot_save");
  snaps.load.dump("snapshot_load");
  res.put("snapshot_save_ms", 1e3 / snaps.save.rate, "ms");
  res.put("snapshot_load_ms", 1e3 / snaps.load.rate, "ms");
  res.layer["io.snapshot_bytes"] = static_cast<double>(snaps.bytes.size());
  res.put("peak_rss_mib", peak_rss_mib(), "MiB");
  phase("snapshots done");
}

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string history, spans;
};

// ------------------------------------------------------------------ paper-online

constexpr std::size_t kPaperJobs = 2520;
constexpr std::size_t kPaperBatch = 8;
constexpr std::size_t kPaperLearnEpisodes = 64;
constexpr std::size_t kPaperStreams = 64;
/// One client replays the Experiment-3 stream in batches of 8 through the
/// exploring recommend_batch and observe_batch (4 round-robin shards, inline
/// sync after every batch). Like the paper's experiment, every episode starts
/// from an untrained engine (ε = 1) with its own stream and engine seed; the
/// first 64 episodes are the learning pass. The warm-started engine from the
/// set-up is only timed and counted: its history would have decayed ε to
/// nothing before the stream starts.
void run_paper_online(const Shape& s, const RunArgs& args, Setup& setup, Result& res) {
  std::vector<Jobs> streams;
  for (std::size_t i = 0; i < kPaperStreams; ++i) {
    streams.push_back(make_jobs(s, kPaperJobs, stream_seed(args.seed, Stream::kLearn, i)));
  }
  const Jobs probe = make_jobs(s, 512, kProbeSeed);
  res.batch = kPaperBatch;

  struct Episode {
    double t_rec = 0.0, t_obs = 0.0;  ///< seconds inside the calls
    double regret = 0.0;
    std::size_t explored = 0, republishes = 0, batches = 0;
  };
  Tracer* tracer = t_tracer;
  auto episode = [&](std::size_t e, BanditServer& srv, Tally* tally) {
    const Jobs& jobs = streams[e % kPaperStreams];
    Episode ep;
    std::vector<ServeObservation> obs(kPaperBatch);
    std::vector<FeatureVector> xs;
    Scope root("paper-online.episode");
    for (std::size_t j = 0; j < kPaperJobs; j += kPaperBatch) {
      const std::size_t n = std::min(kPaperBatch, kPaperJobs - j);
      xs.assign(jobs.xs.begin() + j, jobs.xs.begin() + j + n);
      std::int64_t t = now_ns();
      std::vector<ServeDecision> decs;
      {
        Scope sp("serve.recommend_batch");
        decs = srv.recommend_batch(xs);
      }
      ep.t_rec += seconds_since(t);
      obs.resize(n);
      for (std::size_t i = 0; i < n; ++i) {
        obs[i] = {decs[i].shard, decs[i].arm, xs[i], jobs.y(j + i, decs[i].arm)};
        ep.regret += jobs.regret(j + i, decs[i].arm);
        ep.explored += decs[i].explored;
        if (tally != nullptr) tally->add(decs[i].arm, xs[i], obs[i].runtime_s);
      }
      std::uint64_t epochs = 0;
      if (tracer != nullptr && tracer->on) {
        for (std::size_t k = 0; k < srv.num_shards(); ++k) epochs += srv.published_epoch(k);
      }
      t = now_ns();
      {
        Scope sp("serve.observe_batch");
        srv.observe_batch(obs);
      }
      ep.t_obs += seconds_since(t);
      if (tracer != nullptr && tracer->on) {
        std::uint64_t after = 0;
        for (std::size_t k = 0; k < srv.num_shards(); ++k) after += srv.published_epoch(k);
        ep.republishes += after - epochs;
      }
      ++ep.batches;
    }
    res.attempted += 2 * kPaperJobs;
    return ep;
  };
  auto fresh = [&](std::size_t e) {
    BanditServerConfig cfg = s.config;
    cfg.seed = stream_seed(args.seed, Stream::kEngine, e);
    return std::make_unique<BanditServer>(bw::hw::HardwareCatalog(s.specs), s.features, cfg);
  };

  // Learning pass: deterministic per seed.
  std::vector<double> regrets, rmses;
  std::size_t explored = 0;
  std::unique_ptr<BanditServer> final_srv;
  Tally tally(s.arms(), s.dim());
  for (std::size_t e = 0; e < kPaperLearnEpisodes; ++e) {
    auto srv = fresh(e);
    const Episode ep = episode(e, *srv, e == 0 ? &tally : nullptr);
    regrets.push_back(ep.regret);
    explored += ep.explored;
    rmses.push_back(rmse(s, *srv, probe));
    if (e == 0) final_srv = std::move(srv);
  }
  check_ridge(s, *final_srv, tally, probe.xs, res.checks);
  check_regret(probe, check_tolerant(s, *final_srv, probe.xs, res.checks), res.checks);
  res.put("regret_s", median(regrets), "s");
  res.put("rmse_s", median(rmses), "s");
  res.layer["core.explored_decisions"] = static_cast<double>(explored);
  phase("learning pass done");

  // Traffic: more episodes, each a segment of the fastest-segment rule. A
  // traced run alternates traced and untraced episodes, so host drift falls
  // on both.
  Best dec, obs, dec_traced;
  std::size_t republishes = 0, traced_batches = 0;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(0.75 * args.seconds * 1e9);
  for (std::size_t e = kPaperLearnEpisodes; now_ns() < t_end || e < kPaperLearnEpisodes + 6; ++e) {
    tracer->on = args.trace && e % 2 == 1;
    auto srv = fresh(e);
    const Episode ep = episode(e, *srv, nullptr);
    if (tracer->on) {
      dec_traced.add(kPaperJobs, ep.t_rec);
    } else {
      dec.add(kPaperJobs, ep.t_rec);
      obs.add(kPaperJobs, ep.t_obs);
    }
    republishes += ep.republishes;
    if (tracer->on) traced_batches += ep.batches;
  }
  tracer->on = false;
  dec.dump("decisions");
  obs.dump("observations");
  res.put("decisions_per_s", dec.rate, "1/s");
  res.put("observations_per_s", obs.rate, "1/s");
  if (args.trace) {
    res.layer["trace_overhead_pct"] = (dec.rate / dec_traced.rate - 1.0) * 100.0;
    res.layer["serve.republishes_per_batch"] =
        static_cast<double>(republishes) / (traced_batches * s.config.num_shards);
    res.layer["serve.recommend_explore_ns"] =
        span_median_ns({*tracer}, "serve.recommend_batch", kPaperBatch);
    res.layer["serve.observe_batch_us"] =
        span_median_ns({*tracer}, "serve.observe_batch", kPaperBatch) / 1e3;
  }
  for (std::size_t j = 0; j < 256; ++j) {
    res.replay_xs.push_back(streams[1].xs[j]);
    res.replay_obs.push_back({j % s.config.num_shards, j % s.arms(), streams[1].xs[j],
                              streams[1].y(j, j % s.arms())});
  }
  snapshot_metrics(*final_srv, 0.25 * args.seconds, res);
  res.checks.record("d.count", pb::count_matches(final_srv->num_observations(), tally.total));
  check_snapshots(*final_srv, probe.xs, res.checks);
  setup.server = std::move(final_srv);
}

// ------------------------------------------------------------------ big-catalog

constexpr std::size_t kBigBatch = 64;
constexpr std::size_t kBigLearnBatches = 32;
constexpr std::size_t kBigLearnReplicas = 16;
/// Rounds per timed segment: a round is one read batch and its 64 writes,
/// about 8 ms.
constexpr std::size_t kBigRoundsPerSegment = 2;

/// Greedy batched reads of 64 contexts on one 4096-arm shard, each served
/// decision fed back as a single observe_one: one decision, one job, one
/// runtime report.
void run_big_catalog(const Shape& s, const RunArgs& args, Setup& setup, Tally& tally,
                     Result& res) {
  BanditServer& srv = *setup.server;
  const Jobs traffic = make_jobs(s, kBigBatch * 16, stream_seed(args.seed, Stream::kTraffic));
  const Jobs probe = make_jobs(s, 512, kProbeSeed);
  res.batch = kBigBatch;

  // Learning pass: 16 replicas of 32 greedy batches, every decision fed back
  // with observe_one. Replica 0 is the serving engine itself and learns
  // before the traffic. Each other replica is warm-started from its own
  // history, so the quality figures average over 16 history draws; they run
  // after the snapshot phase, so that peak_rss_mib is the served engine's
  // and not that of a second engine beside it.
  std::vector<double> regrets, rmses;
  auto learn_pass = [&](std::size_t r, BanditServer& learner) {
    const Jobs learn = make_jobs(s, kBigBatch * kBigLearnBatches, stream_seed(args.seed, Stream::kLearn, r));
    std::vector<FeatureVector> xs;
    double regret = 0.0;
    for (std::size_t b = 0; b < kBigLearnBatches; ++b) {
      xs.assign(learn.xs.begin() + b * kBigBatch, learn.xs.begin() + (b + 1) * kBigBatch);
      const auto decs = learner.recommend_batch(xs);
      for (std::size_t i = 0; i < kBigBatch; ++i) {
        const std::size_t j = b * kBigBatch + i;
        const double y = learn.y(j, decs[i].arm);
        learner.observe_one({0, decs[i].arm, xs[i], y});
        if (r == 0) tally.add(decs[i].arm, xs[i], y);
        regret += learn.regret(j, decs[i].arm);
      }
    }
    regrets.push_back(regret);
    rmses.push_back(rmse(s, learner, probe));
    res.attempted += 2 * kBigBatch * kBigLearnBatches;
  };
  learn_pass(0, srv);
  res.layer["core.explored_decisions"] = 0.0;  // greedy serving never explores
  check_ridge(s, srv, tally, probe.xs, res.checks);
  check_regret(probe, check_tolerant(s, srv, probe.xs, res.checks), res.checks);
  phase("learning pass done");

  // Traffic: rounds of one 64-context read batch and a write per decision;
  // kBigRoundsPerSegment rounds make a segment.
  std::vector<std::vector<FeatureVector>> batches(16);
  for (std::size_t b = 0; b < 16; ++b) {
    batches[b].assign(traffic.xs.begin() + b * kBigBatch, traffic.xs.begin() + (b + 1) * kBigBatch);
  }
  // A traced run alternates traced and untraced segments, so host drift
  // falls on both and their difference is the tracing overhead.
  Best dec, obs, dec_traced;
  const std::int64_t t_end = now_ns() + static_cast<std::int64_t>(0.75 * args.seconds * 1e9);
  for (std::size_t round = 0, seg = 0; now_ns() < t_end || seg < 6; ++seg) {
    t_tracer->on = args.trace && seg % 2 == 1;
    Scope root("big-catalog.segment");
    double t_read = 0.0, t_write = 0.0;
    for (std::size_t r = 0; r < kBigRoundsPerSegment; ++r, ++round) {
      const std::size_t b = round % 16;
      std::int64_t t = now_ns();
      std::vector<ServeDecision> decs;
      {
        Scope sp("serve.recommend_batch");
        decs = srv.recommend_batch(batches[b]);
      }
      t_read += seconds_since(t);
      for (std::size_t i = 0; i < kBigBatch; ++i) {
        const std::size_t j = b * kBigBatch + i;
        ServeObservation o{0, decs[i].arm, batches[b][i], traffic.y(j, decs[i].arm)};
        t = now_ns();
        {
          Scope sp("serve.observe_one");
          srv.observe_one(o);
        }
        t_write += seconds_since(t);
        tally.add(o.arm, o.x, o.runtime_s);
      }
      res.attempted += 2 * kBigBatch;
    }
    // Snapshot samples are spread over the run: a 6 MB save/load is long
    // enough that a slow stretch of the host would otherwise own all of them.
    if (seg % 8 == 7) {
      Scope sp("io.snapshot_save_load");
      res.snaps.sample(srv);
    }
    if (t_tracer->on) {
      dec_traced.add(kBigRoundsPerSegment * kBigBatch, t_read);
    } else {
      dec.add(kBigRoundsPerSegment * kBigBatch, t_read);
      obs.add(kBigRoundsPerSegment * kBigBatch, t_write);
    }
  }
  t_tracer->on = false;
  dec.dump("decisions");
  obs.dump("observations");
  res.put("decisions_per_s", dec.rate, "1/s");
  res.put("observations_per_s", obs.rate, "1/s");
  if (args.trace) {
    res.layer["trace_overhead_pct"] = (dec.rate / dec_traced.rate - 1.0) * 100.0;
    res.layer["serve.greedy_batch_ns"] = span_median_ns({*t_tracer}, "serve.recommend_batch", kBigBatch);
    res.layer["serve.observe_one_us"] = span_median_ns({*t_tracer}, "serve.observe_one") / 1e3;
  }
  for (std::size_t j = 0; j < 256; ++j) {
    res.replay_xs.push_back(traffic.xs[j]);
    res.replay_obs.push_back({0, (j * 131) % s.arms(), traffic.xs[j],
                              traffic.y(j, (j * 131) % s.arms())});
  }
  snapshot_metrics(srv, 0.25 * args.seconds, res);
  const auto plan = history_plan(s);
  for (std::size_t r = 1; r < kBigLearnReplicas; ++r) {
    BanditServer replica(bw::hw::HardwareCatalog(s.specs), s.features, s.config);
    const Jobs h = make_jobs(s, s.history_rows, stream_seed(args.seed, Stream::kHistory, r));
    std::vector<ServeObservation> batch;
    for (std::size_t j = 0; j < h.xs.size(); ++j) {
      for (std::size_t arm : plan[j]) batch.push_back({0, arm, h.xs[j], h.y(j, arm)});
    }
    replica.observe_batch(batch);
    learn_pass(r, replica);
  }
  // Means: greedy passes from a warm start have no heavy tail, and the mean
  // of 16 moved less from seed to seed than their median.
  res.put("regret_s", mean(regrets), "s");
  res.put("rmse_s", mean(rmses), "s");
  phase("replica learning passes done");
  res.checks.record("d.count", pb::count_matches(srv.num_observations(), tally.total));
  check_snapshots(srv, probe.xs, res.checks);
  // Batched greedy reads follow the same rule as single reads.
  const auto decs = srv.recommend_batch(probe.xs);
  std::vector<std::size_t> served, single;
  for (std::size_t i = 0; i < probe.xs.size(); ++i) {
    served.push_back(decs[i].arm);
    single.push_back(srv.recommend_greedy(probe.xs[i]).arm);
  }
  res.checks.record("b.tolerant", pb::decisions_match(served, single));
}

// ------------------------------------------------------------------ shared-reads

constexpr std::size_t kSharedLearnJobs = 2000;
constexpr std::size_t kSharedLearnReplicas = 128;
constexpr std::size_t kSharedClients = 4;
constexpr std::size_t kSharedReadsPerSegment = 8192;
constexpr std::size_t kSharedReadsPerWrite = 32;
/// The segment rate reported: the 90th percentile of the segments (README,
/// "Why these estimators").
constexpr double kSharedQuantile = 0.9;

/// LinUCB on one shard. The learning pass is 128 single-client replicas, each
/// an untrained engine learning from its own 2000-job stream. The traffic
/// then runs on the warm-started engine: four client threads issue greedy
/// reads with an observe_one every 32 decisions.
void run_shared_reads(const Shape& s, const RunArgs& args, Setup& setup, Tally& tally,
                      Result& res) {
  BanditServer& srv = *setup.server;
  const Jobs probe = make_jobs(s, 512, kProbeSeed);

  std::vector<double> regrets, rmses;
  std::size_t explored = 0;
  for (std::size_t r = 0; r < kSharedLearnReplicas; ++r) {
    const Jobs learn = make_jobs(s, kSharedLearnJobs, stream_seed(args.seed, Stream::kLearn, r));
    BanditServerConfig cfg = s.config;
    cfg.seed = stream_seed(args.seed, Stream::kEngine, r);
    BanditServer learner(bw::hw::HardwareCatalog(s.specs), s.features, cfg);
    Tally learned(s.arms(), s.dim());
    double regret = 0.0;
    for (std::size_t j = 0; j < kSharedLearnJobs; ++j) {
      const ServeDecision d = learner.recommend_one(learn.xs[j]);
      const double y = learn.y(j, d.arm);
      learner.observe_one({d.shard, d.arm, learn.xs[j], y});
      learned.add(d.arm, learn.xs[j], y);
      regret += learn.regret(j, d.arm);
      explored += d.explored;
    }
    regrets.push_back(regret);
    rmses.push_back(rmse(s, learner, probe));
    if (r == 0) {
      check_ridge(s, learner, learned, probe.xs, res.checks);
      check_regret(probe, check_tolerant(s, learner, probe.xs, res.checks), res.checks);
      res.checks.record("d.count", pb::count_matches(learner.num_observations(), learned.total));
    }
  }
  res.attempted += 2 * kSharedLearnJobs * kSharedLearnReplicas;
  res.put("regret_s", median(regrets), "s");
  res.put("rmse_s", median(rmses), "s");
  res.layer["core.explored_decisions"] = static_cast<double>(explored);

  std::vector<Jobs> client_jobs;
  for (std::size_t c = 0; c < kSharedClients; ++c) {
    client_jobs.push_back(make_jobs(s, 1024, stream_seed(args.seed, Stream::kTraffic, c)));
  }
  struct Client {
    std::vector<std::int64_t> start, end;  ///< per segment
    std::vector<double> write_s;    ///< per segment: time in observe_one
    std::vector<char> traced;       ///< per segment
    std::size_t writes = 0;
    std::vector<std::size_t> served;  ///< verification pass
    Tracer tracer;
  };
  std::vector<Client> clients(kSharedClients);
  std::atomic<bool> stop{false}, traced{false};
  std::barrier sync(static_cast<std::ptrdiff_t>(kSharedClients));
  const double traffic_s = 0.75 * args.seconds;

  auto client = [&](std::size_t c) {
    Client& me = clients[c];
    t_tracer = &me.tracer;
    const Jobs& jobs = client_jobs[c];
    const std::int64_t t_start = now_ns();
    std::size_t i = 0, sink = 0;
    for (;;) {
      if (c == 0) {
        // Client 0 paces the segments; the barrier publishes its flags. A
        // traced run traces every other segment, so host drift falls on both.
        const double elapsed = seconds_since(t_start);
        stop.store(elapsed > traffic_s && me.start.size() >= 6, std::memory_order_relaxed);
        traced.store(args.trace && me.start.size() % 2 == 1, std::memory_order_relaxed);
      }
      sync.arrive_and_wait();
      if (stop.load(std::memory_order_relaxed)) break;
      me.tracer.on = traced.load(std::memory_order_relaxed);
      const std::int64_t t0 = now_ns();
      std::int64_t t_write = 0;
      {
        Scope root("shared-reads.segment");
        // Reads are spanned per run of 32 (one span per read would cost more
        // than the read); a run ends with one observe_one. Client c's first
        // run is 8c reads short and its segment ends with those 8c reads, so
        // the clients' writes start the segment out of step with each other.
        const std::size_t lead = c * kSharedReadsPerWrite / kSharedClients;
        for (std::size_t k = 0; k < kSharedReadsPerSegment;) {
          const std::size_t run = std::min(kSharedReadsPerWrite - (k == 0 ? lead : 0),
                                           kSharedReadsPerSegment - k);
          ServeDecision d;
          {
            Scope sp("serve.recommend_greedy.x32");
            for (std::size_t r = 0; r < run; ++r, ++i) {
              d = srv.recommend_greedy(jobs.xs[i % 1024]);
              sink += d.arm;
            }
          }
          k += run;
          if (k + lead > kSharedReadsPerSegment) break;
          const std::size_t j = (i - 1) % 1024;
          const std::int64_t tw = now_ns();
          {
            Scope sp("serve.observe_one");
            srv.observe_one({d.shard, d.arm, jobs.xs[j], jobs.y(j, d.arm)});
          }
          t_write += now_ns() - tw;
          ++me.writes;
        }
      }
      me.start.push_back(t0);
      me.end.push_back(now_ns());
      me.write_s.push_back(t_write * 1e-9);
      me.traced.push_back(me.tracer.on);
      sync.arrive_and_wait();
    }
    me.tracer.on = false;
    // (b) on every client, after the contended phase (no writer runs now).
    for (const auto& x : probe.xs) me.served.push_back(srv.recommend_greedy(x).arm);
    if (sink == 1) std::cerr << "";
  };
  {
    std::vector<std::thread> threads;
    for (std::size_t c = 1; c < kSharedClients; ++c) threads.emplace_back(client, c);
    Tracer* main_tracer = t_tracer;
    client(0);
    t_tracer = main_tracer;
    for (auto& t : threads) t.join();
  }
  // A segment's decision rate is all clients' reads over its wall time,
  // first client start to last client end (writes included: they are part
  // of the mix); its observation rate is writes over the clients' summed
  // observe_one time.
  Best dec, dec_traced, obs;
  const std::size_t segs = clients[0].start.size();
  const double writes_per_seg =
      static_cast<double>(kSharedClients * (kSharedReadsPerSegment / kSharedReadsPerWrite));
  for (std::size_t g = 0; g < segs; ++g) {
    std::int64_t first = clients[0].start[g], last = clients[0].end[g];
    double wsec = 0.0;
    for (const auto& cl : clients) {
      first = std::min(first, cl.start[g]);
      last = std::max(last, cl.end[g]);
      wsec += cl.write_s[g];
    }
    const double rsec = (last - first) * 1e-9;
    const double reads = static_cast<double>(kSharedClients * kSharedReadsPerSegment);
    if (clients[0].traced[g]) {
      dec_traced.add(reads, rsec);
    } else {
      dec.add(reads, rsec);
      obs.add(writes_per_seg, wsec);
    }
  }
  std::size_t writes = 0;
  for (auto& cl : clients) {
    writes += cl.writes;
    res.checks.record("b.tolerant_all_clients", cl.served == clients[0].served);
  }
  res.attempted += segs * kSharedClients * kSharedReadsPerSegment + writes;
  // Traffic observations count for (d); the ridge oracle was checked after
  // the learning pass.
  tally.total += writes;
  dec.dump("decisions");
  obs.dump("observations");
  if (!args.trace) {
    res.put("decisions_per_s", dec.quantile(kSharedQuantile), "1/s");
    res.put("observations_per_s", obs.quantile(kSharedQuantile), "1/s");
  } else {
    std::vector<Tracer> ts;
    for (auto& cl : clients) ts.push_back(std::move(cl.tracer));
    res.layer["trace_overhead_pct"] = (dec.quantile(kSharedQuantile) / dec_traced.quantile(kSharedQuantile) - 1.0) * 100.0;
    res.layer["serve.recommend_greedy_contended_ns"] =
        span_median_ns(ts, "serve.recommend_greedy.x32", kSharedReadsPerWrite);
    res.layer["serve.observe_one_us"] = span_median_ns(ts, "serve.observe_one") / 1e3;
    res.tracers = std::move(ts);
  }
  // Every client's verification pass follows the tolerant rule.
  {
    std::vector<double> costs(s.arms());
    for (std::size_t a = 0; a < s.arms(); ++a) costs[a] = s.cost(a);
    std::vector<std::size_t> want;
    for (const auto& x : probe.xs) {
      want.push_back(pb::tolerant_arm(srv.predictions(0, x), costs,
                                      s.config.bandit.policy.tolerance.ratio,
                                      s.config.bandit.policy.tolerance.seconds));
    }
    res.checks.record("b.tolerant_all_clients", pb::decisions_match(clients[0].served, want));
  }
  for (std::size_t j = 0; j < 256; ++j) {
    const Jobs& jobs = client_jobs[0];
    res.replay_xs.push_back(jobs.xs[j]);
    res.replay_obs.push_back({0, j % s.arms(), jobs.xs[j], jobs.y(j, j % s.arms())});
  }
  snapshot_metrics(srv, 0.25 * args.seconds, res);
  res.checks.record("d.count", pb::count_matches(srv.num_observations(), tally.total));
  check_snapshots(srv, probe.xs, res.checks);
}

// ------------------------------------------------------------------ layer ledger

/// Per-call time of `fn` (which does `ops` calls per invocation): the
/// fastest of many ~13 ms segments within `budget_s`.
double per_call_ns(double budget_s, std::size_t ops, const std::function<void()>& fn) {
  const std::int64_t t0 = now_ns();
  fn();
  const std::size_t reps = reps_for(seconds_since(t0));
  const double rate = best_rate(budget_s, [&] {
    for (std::size_t r = 0; r < reps; ++r) fn();
    return static_cast<double>(reps * ops);
  });
  return 1e9 / rate;
}

/// Same, with `threads` callers at once; median of the callers' figures.
double contended_ns(std::size_t threads, double budget_s, std::size_t ops,
                    const std::function<void()>& fn) {
  std::vector<double> per(threads);
  std::vector<std::thread> ts;
  for (std::size_t t = 0; t < threads; ++t) {
    ts.emplace_back([&, t] { per[t] = per_call_ns(budget_s, ops, fn); });
  }
  for (auto& t : ts) t.join();
  return median(per);
}

/// Times each layer's public calls by replaying the workload's own inputs
/// on copies of its final state. Figures the workload measured itself (in
/// res.layer) are kept.
void layer_ledger(const Shape& s, BanditServer& srv, const std::string& history, Result& res) {
  const double slot = 0.12;
  auto& L = res.layer;
  auto put = [&](const std::string& name, double v) { L.emplace(name, v); };
  const auto& xs = res.replay_xs;
  const auto& obs = res.replay_obs;
  const std::size_t B = res.batch;
  std::vector<FeatureVector> panel(xs.begin(), xs.begin() + B);
  const bw::core::BanditWare model = srv.fused_model();
  std::size_t sink = 0;
  const std::vector<ServeObservation> batch(obs.begin(), obs.begin() + std::max<std::size_t>(B, 8));
  double batch_us = 0.0, share_observes = 0.0, share_refreeze_us = 0.0;

  put("serve.route_ns", per_call_ns(slot, xs.size(), [&] {
        for (const auto& x : xs) sink += srv.shard_of(x);
      }));
  {
    BanditServerConfig cfg = s.config;
    cfg.explore = true;
    cfg.sync_every = 0;
    auto copy = copy_with(s, model, cfg);
    put("serve.recommend_explore_ns", per_call_ns(slot, B, [&] {
          sink += copy->recommend_batch(panel).size();
        }));
  }
  put("serve.recommend_greedy_ns", per_call_ns(slot, xs.size(), [&] {
        for (const auto& x : xs) sink += srv.recommend_greedy(x).arm;
      }));
  put("serve.recommend_greedy_contended_ns", contended_ns(4, slot, xs.size(), [&] {
        std::size_t k = 0;
        for (const auto& x : xs) k += srv.recommend_greedy(x).arm;
        if (k == 1) std::cerr << "";
      }));
  put("serve.snapshot_acquire_ns", per_call_ns(slot, 1000, [&] {
        for (int i = 0; i < 1000; ++i) sink += srv.published_model(0)->num_arms();
      }));
  put("serve.snapshot_acquire_contended_ns", contended_ns(4, slot, 1000, [&] {
        std::size_t k = 0;
        for (int i = 0; i < 1000; ++i) k += srv.published_model(0)->num_arms();
        if (k == 1) std::cerr << "";
      }));
  put("serve.greedy_batch_ns", per_call_ns(slot, B, [&] {
        sink += srv.recommend_greedy_batch(panel).size();
      }));
  {
    BanditServerConfig cfg = s.config;
    cfg.sync_every = 0;
    auto copy = copy_with(s, model, cfg);
    auto epochs = [&] {
      std::uint64_t sum = 0;
      for (std::size_t shard = 0; shard < copy->num_shards(); ++shard) sum += copy->published_epoch(shard);
      return sum;
    };
    const std::uint64_t before = epochs();
    std::size_t k = 0;
    put("serve.observe_one_us", per_call_ns(slot, 1, [&] {
          copy->observe_one(obs[k++ % obs.size()]);
        }) / 1e3);
    // Where the workload writes with observe_one, a write is its batch.
    put("serve.republishes_per_batch", static_cast<double>(epochs() - before) / static_cast<double>(k));
    // Replayed without a sync, which is timed on its own below.
    batch_us = per_call_ns(slot, 1, [&] { copy->observe_batch(batch); }) / 1e3;
    put("serve.observe_batch_us", batch_us / static_cast<double>(batch.size()));
    // Each round fuses one fresh batch; only sync_shards is timed.
    double sync_us = 1e300;
    const std::int64_t sync_end = now_ns() + static_cast<std::int64_t>(slot * 1e9);
    do {
      std::int64_t busy = 0;
      for (int r = 0; r < 32; ++r) {
        copy->observe_batch(batch);
        const std::int64_t t = now_ns();
        copy->sync_shards();
        busy += now_ns() - t;
      }
      sync_us = std::min(sync_us, busy / 32e3);
    } while (now_ns() < sync_end);
    put("serve.sync_round_us", sync_us);
  }
  // core
  {
    bw::core::BanditWare bw = model;
    bw::Rng rng(7);
    put("core.next_ns", per_call_ns(slot, xs.size(), [&] {
          for (const auto& x : xs) sink += bw.next(x, rng).arm;
        }));
    put("core.observe_ns", per_call_ns(slot, obs.size(), [&] {
          for (const auto& o : obs) bw.observe(o.arm, o.x, o.runtime_s);
        }));
    const auto frozen = srv.published_model(0);
    put("core.score_ns", per_call_ns(slot, xs.size(), [&] {
          for (const auto& x : xs) sink += frozen->recommend_choice(x).arm;
        }));
    put("core.score_batch_ns", per_call_ns(slot, B, [&] {
          sink += frozen->recommend_greedy_batch(std::span<const FeatureVector>(panel)).size();
        }));
    const bw::core::ArmIndex dirty[] = {obs[0].arm};
    put("core.refreeze_us", per_call_ns(slot, 1, [&] {
          sink += bw.refreeze(*frozen, dirty, 1)->num_arms();
        }) / 1e3);
    put("core.freeze_us", per_call_ns(slot, 1, [&] { sink += bw.freeze(1)->num_arms(); }) / 1e3);
    // Shard 0's share of the replayed batch and the refreeze of its arms.
    std::vector<bw::core::ArmIndex> share;
    for (const auto& o : batch) {
      if (o.shard == 0) share.push_back(o.arm);
    }
    share_observes = static_cast<double>(share.size());
    std::sort(share.begin(), share.end());
    share.erase(std::unique(share.begin(), share.end()), share.end());
    share_refreeze_us = per_call_ns(slot, 1, [&] {
                          sink += bw.refreeze(*frozen, share, 1)->num_arms();
                        }) / 1e3;
    bw::core::BanditWare other = model;
    for (std::size_t i = 0; i < B; ++i) other.observe(obs[i].arm, obs[i].x, obs[i].runtime_s);
    bw::core::BanditWare target = model;
    put("core.merge_us", per_call_ns(slot, 1, [&] { target.merge_from(other, &model); }) / 1e3);
  }
  // linalg
  {
    bw::linalg::RecursiveLeastSquares rls(s.dim(), s.ridge);
    put("linalg.rls_update_ns", per_call_ns(slot, obs.size(), [&] {
          for (const auto& o : obs) rls.update(o.x, o.runtime_s);
        }));
    bw::linalg::RecursiveLeastSquares base(s.dim(), s.ridge), other(s.dim(), s.ridge);
    for (const auto& o : obs) base.update(o.x, o.runtime_s);
    other = base;
    for (std::size_t i = 0; i < 8; ++i) other.update(obs[i].x, obs[i].runtime_s);
    bw::linalg::RecursiveLeastSquares target = base;
    put("linalg.rls_merge_us", per_call_ns(slot, 1, [&] { target.merge(other, &base); }) / 1e3);
    const auto frozen = srv.published_model(0);
    const std::size_t k = s.dim() + 1, arms = s.arms();
    std::vector<double> plane(k * arms), ctx(B * k), out(B * arms);
    for (std::size_t a = 0; a < arms; ++a) {
      const auto row = frozen->weight_row(a);
      for (std::size_t i = 0; i < k; ++i) plane[i * arms + a] = row[i];
    }
    for (std::size_t j = 0; j < B; ++j) {
      for (std::size_t i = 0; i < k; ++i) ctx[j * k + i] = i + 1 < k ? panel[j][i] : 1.0;
    }
    put("linalg.score_block_ns", per_call_ns(slot, 1, [&] {
          bw::linalg::score_block(plane.data(), arms, k, ctx.data(), B, out.data());
        }));
    sink += out[0] > 0;
  }
  // io
  {
    std::size_t rows = 0;
    put("io.run_table_read_ns_per_row", per_call_ns(slot, s.history_rows, [&] {
          std::istringstream is(history);
          bw::io::RunTableReader reader(is);
          FeatureVector x;
          std::vector<double> r;
          while (reader.next_row(x, r)) ++rows;
        }));
    sink += rows;
  }
  // The part of a replayed observe_batch that is not core work: the shards
  // run in parallel, so shard 0's share of the observes and the refreeze of
  // its arms is what the batch waits for; the rest is dispatch.
  put("serve.dispatch_residue_us",
      batch_us - (share_observes * L["core.observe_ns"] / 1e3 + share_refreeze_us));
  if (sink == 0) std::cerr << "";
}

// ------------------------------------------------------------------ output

const char* kEndToEnd[] = {"setup_s", "decisions_per_s", "observations_per_s", "regret_s",
                           "rmse_s", "snapshot_save_ms", "snapshot_load_ms", "peak_rss_mib"};

struct LayerMetric {
  const char* name;
  const char* unit;
};
const LayerMetric kPerLayer[] = {
    {"serve.route_ns", "ns"}, {"serve.recommend_explore_ns", "ns"},
    {"serve.recommend_greedy_ns", "ns"}, {"serve.recommend_greedy_contended_ns", "ns"},
    {"serve.snapshot_acquire_ns", "ns"}, {"serve.snapshot_acquire_contended_ns", "ns"},
    {"serve.greedy_batch_ns", "ns"}, {"serve.observe_one_us", "us"},
    {"serve.observe_batch_us", "us"}, {"serve.sync_round_us", "us"},
    {"serve.dispatch_residue_us", "us"}, {"serve.republishes_per_batch", "count"},
    {"core.next_ns", "ns"}, {"core.explored_decisions", "count"}, {"core.observe_ns", "ns"},
    {"core.score_ns", "ns"}, {"core.score_batch_ns", "ns"}, {"core.refreeze_us", "us"},
    {"core.freeze_us", "us"}, {"core.merge_us", "us"}, {"linalg.rls_update_ns", "ns"},
    {"linalg.rls_merge_us", "us"}, {"linalg.score_block_ns", "ns"},
    {"io.run_table_read_ns_per_row", "ns"}, {"io.snapshot_bytes", "bytes"},
    {"residue_s", "s"}, {"trace_overhead_pct", "%"}};

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int run(const RunArgs& args) {
  const Shape s = make_shape(args.workload);
  Tracer main_tracer;
  t_tracer = &main_tracer;
  Tally tally(s.arms(), s.dim());
  Setup setup = warm_start(s, args.history, tally);
  Result res;
  res.put("setup_s", setup.seconds, "s");
  phase("setup done");
  res.checks.record("d.count_after_setup",
                    pb::count_matches(setup.server->num_observations(), tally.total));
  if (s.name == "paper-online") {
    run_paper_online(s, args, setup, res);
  } else if (s.name == "big-catalog") {
    run_big_catalog(s, args, setup, tally, res);
  } else {
    run_shared_reads(s, args, setup, tally, res);
  }

  std::ostringstream out;
  out << "{\"correct\": " << (res.checks.all() ? "true" : "false")
      << ", \"attempted\": " << res.attempted << ", \"failed\": 0, \"metrics\": {";
  bool first = true;
  auto emit = [&](const std::string& name, double v, const std::string& unit) {
    out << (first ? "" : ", ") << '"' << name << "\": {\"value\": " << json_number(v)
        << ", \"unit\": \"" << unit << "\"}";
    first = false;
  };
  if (!args.trace) {
    for (const char* name : kEndToEnd) {
      const auto& [v, unit] = res.metrics.at(name);
      emit(name, v, unit);
    }
  } else {
    if (res.tracers.empty()) res.tracers.push_back(std::move(main_tracer));
    res.layer["residue_s"] = residue_seconds(res.tracers);
    layer_ledger(s, *setup.server, setup.history_bytes, res);
    phase("ledger done");
    write_spans(res.tracers, args.spans);
    for (const auto& m : kPerLayer) emit(m.name, res.layer.at(m.name), m.unit);
  }
  out << "}}";
  for (const auto& [name, ok] : res.checks.passed) {
    std::cerr << "check " << name << ": " << (ok ? "pass" : "FAIL") << '\n';
  }
  std::cout << out.str() << std::endl;
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::invalid_argument("usage: bwbench gen|run --workload W --seed N ...");
    const std::string mode = argv[1];
    RunArgs args;
    for (int i = 2; i + 1 < argc; i += 2) {
      const std::string key = argv[i], val = argv[i + 1];
      if (key == "--workload") args.workload = val;
      else if (key == "--seed") args.seed = std::stoull(val);
      else if (key == "--seconds") args.seconds = std::stod(val);
      else if (key == "--trace") args.trace = val == "1";
      else if (key == "--history") args.history = val;
      else if (key == "--spans") args.spans = val;
      else throw std::invalid_argument("unknown flag " + key);
    }
    if (args.history.empty()) throw std::invalid_argument("--history is required");
    if (mode == "gen") {
      write_history(make_shape(args.workload), args.seed, args.history);
      return 0;
    }
    if (mode == "run") return run(args);
    throw std::invalid_argument("unknown mode " + mode);
  } catch (const std::exception& e) {
    std::cerr << "bwbench: " << e.what() << '\n';
    return 1;
  }
}
