// hostbench_serve — host-clock serving benchmark for metaai::fleet.
//
// One process serves one workload (fleet_sharded, fleet_overload,
// paper_cold) generated from a seed and prints one JSON object per line
// on stdout, flushed as it goes, so a wrapper can attribute a crash to
// the pass that was running. Two modes:
//
//   measure  span tracing off. Sets the workload up several times
//            (setup_s), alternates serve passes at 1 thread and at
//            --threads until --seconds have been spent, and replays the
//            execute phase once. Every pass is checked against the
//            replay's predictions and against the first pass's export
//            bytes.
//   trace    one setup, then every layer's cost measured from outside:
//            the benchmark times its own calls into each module's public
//            functions inside spans (name, start, end, CPU time, parent,
//            id) kept in memory and written to --spans-out at exit. The
//            program's own internal spans stay off.
//
// A pass is Fleet::Run plus serializing the requests, timeseries and
// alerts JSONL exports to memory. "host" figures come from the host's
// steady clock, "host_cpu" ones from the CPU clock of the one
// thread doing the work, and "virtual" ones from the simulated system.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <memory>
#include <numbers>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/scheduler.h"
#include "core/training.h"
#include "core/weight_mapper.h"
#include "data/datasets.h"
#include "data/encoding.h"
#include "fleet/fleet.h"
#include "mts/config_cache.h"
#include "mts/controller.h"
#include "mts/layer_graph.h"
#include "obs/alerts.h"
#include "obs/health.h"
#include "obs/lifecycle.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "obs/quantiles.h"
#include "obs/timeseries.h"
#include "serve/generator.h"
#include "serve/runtime.h"
#include "sim/energy_model.h"
#include "sim/sync.h"
#include "simd/dispatch.h"
#include "simd/kernels.h"

namespace hostbench {
namespace {

using namespace metaai;
using Clock = std::chrono::steady_clock;

double Since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time of the calling thread. On a virtual machine it leaves out
/// the time the hypervisor ran something else on this vCPU, which the
/// wall clock counts.
double ThreadCpuS() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Host time of one call on both clocks.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  HostTime& operator+=(const HostTime& other) {
    wall_s += other.wall_s;
    cpu_s += other.cpu_s;
    return *this;
  }
};

class Stopwatch {
 public:
  HostTime Read() const { return {Since(wall_), ThreadCpuS() - cpu_}; }

 private:
  Clock::time_point wall_ = Clock::now();
  double cpu_ = ThreadCpuS();
};

// ---------------------------------------------------------------------
// JSON lines on stdout.

class Line {
 public:
  explicit Line(const std::string& event) { Add("event", event); }

  Line& Add(const std::string& key, const std::string& value) {
    Key(key);
    Quote(value);
    return *this;
  }
  Line& Add(const std::string& key, const char* value) {
    return Add(key, std::string(value));
  }
  Line& Add(const std::string& key, double value) {
    Key(key);
    if (std::isfinite(value)) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      os_ << buf;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Line& Add(const std::string& key, std::size_t value) {
    Key(key);
    os_ << value;
    return *this;
  }
  Line& Add(const std::string& key, int value) {
    Key(key);
    os_ << value;
    return *this;
  }
  Line& Add(const std::string& key, bool value) {
    Key(key);
    os_ << (value ? "true" : "false");
    return *this;
  }
  void Emit() {
    std::cout << '{' << os_.str() << "}\n";
    std::cout.flush();
  }

 private:
  void Key(const std::string& key) {
    if (!first_) os_ << ", ";
    first_ = false;
    Quote(key);
    os_ << ": ";
  }
  void Quote(const std::string& s) {
    os_ << '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') os_ << '\\';
      os_ << c;
    }
    os_ << '"';
  }

  std::ostringstream os_;
  bool first_ = true;
};

// ---------------------------------------------------------------------
// Workloads.

constexpr double kFleetRateHz = 565.0;
constexpr std::size_t kFleetSide = 8;
constexpr std::size_t kFleetDim = kFleetSide * kFleetSide;
constexpr std::size_t kFleetClasses = 4;
constexpr std::size_t kTenants = 8;
constexpr std::size_t kPaperStreamSymbols = 256;

struct WorkloadShape {
  double duration_s = 0.0;
  /// Paper datasets: samples per class in the train/test splits.
  std::size_t train_per_class = 0;
  std::size_t test_per_class = 0;
};

/// Trace lengths: bench_fleet's 24 virtual seconds take ~25 s per pass
/// on a 4-vCPU x86-64 VM, so the fleet trace is scaled to 1.5 s (same
/// rates and stressors, time-scaled) and paper_cold to 4 s; a measured
/// run then holds several passes of each thread count. "tiny" is the
/// self-test.
WorkloadShape ShapeFor(const std::string& workload, bool tiny) {
  if (workload == "paper_cold") {
    return tiny ? WorkloadShape{0.08, 12, 4} : WorkloadShape{4.0, 40, 12};
  }
  return tiny ? WorkloadShape{0.08, 0, 0} : WorkloadShape{1.5, 0, 0};
}

mts::LinkGeometry Geometry(double tx_angle_deg) {
  return {.tx_distance_m = 1.0,
          .tx_angle_rad = tx_angle_deg * std::numbers::pi / 180.0,
          .rx_distance_m = 3.0,
          .rx_angle_rad = 40.0 * std::numbers::pi / 180.0,
          .frequency_hz = 5.25e9};
}

sim::OtaLinkConfig LinkConfig(std::uint64_t channel_seed,
                              double tx_angle_deg) {
  sim::OtaLinkConfig config;
  config.geometry = Geometry(tx_angle_deg);
  config.environment.profile = rf::OfficeProfile();
  config.mts_phase_noise_std = 0.05;
  config.channel_seed = channel_seed;
  return config;
}

double LatencyScale() {
  return sim::PaperEquivalentLatencyScale(kPaperStreamSymbols);
}

core::TrainingOptions TrainingOptions() {
  core::TrainingOptions options;
  options.modulation = rf::Modulation::kQam256;
  options.sync_error_injection = true;
  options.sync_gamma_scale_us = 1.85 * LatencyScale();
  options.input_noise_variance = 0.02;
  return options;
}

sim::SyncModel SyncModel() {
  sim::SyncModelConfig config;
  config.latency_scale = LatencyScale();
  return sim::SyncModel(sim::SyncMode::kCdfa, config);
}

/// Class-center blobs in [0, 1]^64 for the 8x8 fleet panels.
void FillBlobs(Rng& rng, nn::RealDataset& train, nn::RealDataset& test) {
  std::vector<std::vector<double>> centers(kFleetClasses,
                                           std::vector<double>(kFleetDim));
  for (auto& center : centers) {
    for (double& v : center) v = rng.Uniform(0.15, 0.85);
  }
  const auto fill = [&](nn::RealDataset& ds, std::size_t per_class) {
    ds.num_classes = kFleetClasses;
    ds.dim = kFleetDim;
    for (std::size_t c = 0; c < kFleetClasses; ++c) {
      for (std::size_t i = 0; i < per_class; ++i) {
        std::vector<double> f(kFleetDim);
        for (std::size_t d = 0; d < kFleetDim; ++d) {
          f[d] = std::clamp(centers[c][d] + 0.18 * rng.Normal(), 0.0, 1.0);
        }
        ds.features.push_back(std::move(f));
        ds.labels.push_back(static_cast<int>(c));
      }
    }
    ds.Validate();
  };
  fill(train, 60);
  fill(test, 40);
}

double ControllerMaxRate(std::size_t atoms) {
  mts::ControllerConfig aligned;
  aligned.num_atoms = atoms;
  return mts::Controller(aligned).MaxSwitchRate();
}

/// Everything one setup produces: the generated trace, the trained
/// models and the constructed fleet, with the host time of each step.
struct Setup {
  std::vector<serve::ServeRequest> requests;
  std::vector<core::TrainedModel> models;
  /// Per global tenant: index into `models`.
  std::vector<std::size_t> tenant_model;
  std::optional<fleet::Fleet> fleet;
  std::uint64_t run_seed = 0;
  double generate_s = 0.0;
  double train_s = 0.0;
  double create_s = 0.0;
  double total_s = 0.0;
};

/// Spans the benchmark records around its own calls (trace mode only), on
/// the wall clock and on the calling thread's CPU clock.
class SpanLog {
 public:
  struct Span {
    const char* name;
    double start_s;
    double end_s;
    double cpu_start_s;
    double cpu_end_s;
    int parent;
    std::int64_t id;
  };

  int Begin(const char* name, int parent = -1, std::int64_t id = -1) {
    spans_.push_back({name, Now(), 0.0, ThreadCpuS(), 0.0, parent, id});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int index) {
    Span& span = spans_[static_cast<std::size_t>(index)];
    span.cpu_end_s = ThreadCpuS();
    span.end_s = Now();
  }

  /// CPU duration of every span named `name`, in recording order.
  std::vector<double> CpuDurations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back(s.cpu_end_s - s.cpu_start_s);
    }
    return out;
  }
  /// Wall self time of every span named `name`: its duration minus the
  /// part its direct children cover (children never overlap: the benchmark
  /// is serial).
  double SelfTotal(const std::string& name) const {
    std::vector<double> child(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child[static_cast<std::size_t>(s.parent)] += s.end_s - s.start_s;
      }
    }
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      if (name == spans_[i].name) {
        total += spans_[i].end_s - spans_[i].start_s - child[i];
      }
    }
    return total;
  }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    if (!out.good()) return false;
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "{\"span\": %zu, \"name\": \"%s\", \"start_us\": %.3f, "
                    "\"end_us\": %.3f, \"cpu_us\": %.3f, \"parent\": %d, "
                    "\"id\": %lld}\n",
                    i, s.name, s.start_s * 1e6, s.end_s * 1e6,
                    (s.cpu_end_s - s.cpu_start_s) * 1e6, s.parent,
                    static_cast<long long>(s.id));
      out << buf;
    }
    return out.good();
  }

 private:
  double Now() const { return Since(origin_); }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// RAII span; a null log records nothing (measure mode).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, int parent = -1, std::int64_t id = -1)
      : log_(log), index_(log ? log->Begin(name, parent, id) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (log_) log_->End(index_);
  }
  int index() const { return index_; }

 private:
  SpanLog* log_;
  int index_;
};

std::vector<serve::ServeRequest> Generate(const serve::WorkloadSpec& spec,
                                          Rng& rng) {
  auto generated = serve::GenerateWorkload(spec, rng);
  if (!generated) {
    std::fprintf(stderr, "workload generation failed: %s\n",
                 generated.error().message.c_str());
    std::exit(3);
  }
  return std::move(generated).value();
}

fleet::Fleet CreateFleet(std::vector<fleet::ShardSpec> shards,
                         std::vector<fleet::TenantSpec> tenants) {
  fleet::FleetOptions options;
  options.cache = std::make_shared<mts::ConfigCache>();
  auto created = fleet::Fleet::TryCreate(std::move(shards),
                                         std::move(tenants),
                                         std::move(options));
  if (!created) {
    std::fprintf(stderr, "fleet construction failed: %s\n",
                 created.error().message.c_str());
    std::exit(3);
  }
  return std::move(created).value();
}

fleet::ShardSpec Shard(const std::string& name, std::size_t side,
                       double budget_cap) {
  mts::MetasurfaceSpec panel;
  panel.rows = side;
  panel.cols = side;
  return {.name = name,
          .graph = mts::LayerGraph::FromSurface(mts::Metasurface{panel}),
          .band_hz = 5.25e9,
          .scheduler = {},
          .budget_cap = budget_cap};
}

/// fleet_sharded / fleet_overload: the bench_fleet trace (8 tenants on
/// 8x8 panels, 4 classes, Pareto/diurnal/flash-crowd stressors) on two
/// shards or on one oversubscribed shard. One mapping solve; every
/// other tenant hits the fleet's cache.
Setup SetupFleet(bool sharded, std::uint64_t seed, const WorkloadShape& shape,
                 SpanLog* spans, int parent) {
  Setup setup;
  const auto start = Clock::now();
  Rng root(seed);
  Rng data_rng = root.Fork();
  Rng train_rng = root.Fork();
  Rng workload_rng = root.Fork();
  setup.run_seed = root.Next();

  nn::RealDataset train;
  nn::RealDataset test;
  {
    const Scope span(spans, "serve.generate", parent);
    const auto t0 = Clock::now();
    FillBlobs(data_rng, train, test);
    serve::WorkloadSpec spec;
    spec.duration_s = shape.duration_s;
    for (std::size_t t = 0; t < kTenants; ++t) {
      serve::TenantWorkload tenant{.arrival_rate_hz = kFleetRateHz,
                                   .samples = &test};
      if (t < 3) {
        tenant.pareto_shape = 1.8;
      } else if (t < 6) {
        tenant.diurnal_amplitude = 0.4;
        tenant.diurnal_period_s = shape.duration_s / 2.0;
      } else if (t == 6) {
        tenant.flash_crowds = {{.start_s = 0.45 * shape.duration_s,
                                .duration_s = 0.05 * shape.duration_s,
                                .multiplier = 2.5}};
      }
      spec.tenants.push_back(std::move(tenant));
    }
    setup.requests = Generate(spec, workload_rng);
    setup.generate_s = Since(t0);
  }
  {
    const Scope span(spans, "core.train", parent);
    const auto t0 = Clock::now();
    setup.models.push_back(
        core::TrainModel(train, TrainingOptions(), train_rng));
    setup.train_s = Since(t0);
  }
  {
    const Scope span(spans, "fleet.create", parent);
    const auto t0 = Clock::now();
    // Budget caps sized like bench_fleet: FFD admits exactly four
    // declared demands per shard on two shards, all eight on one.
    const double demand_hz = kFleetRateHz * 2.0 *
                             static_cast<double>(kFleetDim) *
                             static_cast<double>(kFleetClasses);
    const double max_rate = ControllerMaxRate(kFleetDim);
    std::vector<fleet::ShardSpec> shards;
    if (sharded) {
      for (int s = 0; s < 2; ++s) {
        shards.push_back(Shard("shard" + std::to_string(s), kFleetSide,
                               4.5 * demand_hz / max_rate));
      }
    } else {
      shards.push_back(Shard("shard0", kFleetSide,
                             std::min(1.0, 9.0 * demand_hz / max_rate)));
    }
    std::vector<fleet::TenantSpec> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
      serve::ClientSpec client{
          .name = "tenant" + std::to_string(t),
          .model = setup.models.front(),
          .link = LinkConfig(t + 1, 30.0),
          .deployment = {},
          .slo_latency_s = 0.008 + 0.001 * static_cast<double>(t)};
      tenants.push_back(
          {.client = std::move(client), .arrival_rate_hz = kFleetRateHz});
      setup.tenant_model.push_back(0);
    }
    setup.fleet = CreateFleet(std::move(shards), std::move(tenants));
    setup.create_s = Since(t0);
  }
  setup.total_s = Since(start);
  return setup;
}

/// paper_cold: the paper's 16x16 panel with 10 classes. Two models
/// (MNIST-like and Fashion-like) times four link geometries, so no two
/// of the eight tenants share a cache key: every tenant pays a cold
/// coordinate-descent solve. Poisson arrivals at ~60% of the shard's
/// airtime.
Setup SetupPaper(std::uint64_t seed, const WorkloadShape& shape,
                 SpanLog* spans, int parent) {
  Setup setup;
  const auto start = Clock::now();
  Rng root(seed);
  Rng train_rng = root.Fork();
  Rng workload_rng = root.Fork();
  const std::uint64_t data_seed = 1 + root.Next() % 1000000007ull;
  setup.run_seed = root.Next();
  constexpr double kRateHz = 28.0;

  std::vector<data::Dataset> datasets;
  {
    const Scope span(spans, "serve.generate", parent);
    const auto t0 = Clock::now();
    const data::DatasetOptions options{
        .train_per_class = shape.train_per_class,
        .test_per_class = shape.test_per_class,
        .seed = data_seed};
    datasets.push_back(data::MakeMnistLike(options));
    datasets.push_back(data::MakeFashionLike(options));
    serve::WorkloadSpec spec;
    spec.duration_s = shape.duration_s;
    for (std::size_t t = 0; t < kTenants; ++t) {
      spec.tenants.push_back(
          {.arrival_rate_hz = kRateHz, .samples = &datasets[t % 2].test});
    }
    setup.requests = Generate(spec, workload_rng);
    setup.generate_s = Since(t0);
  }
  {
    const Scope span(spans, "core.train", parent);
    const auto t0 = Clock::now();
    for (const data::Dataset& dataset : datasets) {
      setup.models.push_back(
          core::TrainModel(dataset.train, TrainingOptions(), train_rng));
    }
    setup.train_s = Since(t0);
  }
  {
    const Scope span(spans, "fleet.create", parent);
    const auto t0 = Clock::now();
    const std::size_t dim = setup.models.front().input_dim();
    const double demand_hz = kRateHz * 2.0 * static_cast<double>(dim) *
                             static_cast<double>(
                                 setup.models.front().num_classes());
    const double max_rate = ControllerMaxRate(dim);
    std::vector<fleet::ShardSpec> shards;
    shards.push_back(Shard("shard0", 16,
                           std::min(1.0, 9.0 * demand_hz / max_rate)));
    std::vector<fleet::TenantSpec> tenants;
    for (std::size_t t = 0; t < kTenants; ++t) {
      serve::ClientSpec client{
          .name = "tenant" + std::to_string(t),
          .model = setup.models[t % 2],
          .link = LinkConfig(t + 1, 20.0 + 10.0 * static_cast<double>(t / 2)),
          .deployment = {},
          .slo_latency_s = 0.006 + 0.001 * static_cast<double>(t)};
      tenants.push_back(
          {.client = std::move(client), .arrival_rate_hz = kRateHz});
      setup.tenant_model.push_back(t % 2);
    }
    setup.fleet = CreateFleet(std::move(shards), std::move(tenants));
    setup.create_s = Since(t0);
  }
  setup.total_s = Since(start);
  return setup;
}

Setup MakeSetup(const std::string& workload, std::uint64_t seed, bool tiny,
                int threads, SpanLog* spans = nullptr, int parent = -1) {
  const par::ScopedThreadCount scoped(threads);
  const WorkloadShape shape = ShapeFor(workload, tiny);
  if (workload == "paper_cold") return SetupPaper(seed, shape, spans, parent);
  return SetupFleet(workload == "fleet_sharded", seed, shape, spans, parent);
}

// ---------------------------------------------------------------------
// Passes, replay and checks.

std::uint64_t Fnv1a(const std::string& bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Pass {
  fleet::FleetResult result;
  std::string exports;  // requests + timeseries + alerts JSONL
  HostTime run;
  HostTime export_time;
  double wall_s() const { return run.wall_s + export_time.wall_s; }
  double cpu_s() const { return run.cpu_s + export_time.cpu_s; }
};

Pass RunPass(const Setup& setup, const sim::SyncModel& sync, int threads,
             SpanLog* spans = nullptr, int parent = -1) {
  const par::ScopedThreadCount scoped(threads);
  Pass pass;
  Rng rng(setup.run_seed);
  {
    const Scope span(spans, "fleet.run", parent);
    const Stopwatch watch;
    pass.result = setup.fleet->Run(setup.requests, sync, rng);
    pass.run = watch.Read();
  }
  {
    const Scope span(spans, "obs.export", parent);
    const Stopwatch watch;
    pass.exports = obs::ToRequestsJsonl(pass.result.request_log);
    pass.exports += '\x1e';
    pass.exports += obs::ToTimeSeriesJsonl(pass.result.timeseries);
    pass.exports += '\x1e';
    pass.exports += obs::health::ToAlertsJsonl(pass.result.alerts);
    pass.export_time = watch.Read();
  }
  return pass;
}

/// The execute replay: every served request classified again by its
/// shard's scheduler with its own forked stream (the fleet forks one
/// stream per request of the global trace, in submission order). The
/// trace mode runs it serially, one span per request; the measure mode
/// splits the requests over `workers` threads of its own (each request
/// touches only its own stream, so the split cannot change a result).
struct Replay {
  std::vector<int> predicted;   // -1 where the pass refused
  std::vector<double> margins;  // 0 where refused
  std::size_t served = 0;
  HostTime elapsed;
};

/// `order` lists the served requests in the order to classify them.
Replay RunReplay(const Setup& setup, const sim::SyncModel& sync,
                 const std::vector<std::size_t>& order, int workers,
                 SpanLog* spans = nullptr, int parent = -1) {
  Replay replay;
  const std::size_t n = setup.requests.size();
  replay.predicted.assign(n, -1);
  replay.margins.assign(n, 0.0);
  replay.served = order.size();
  Rng rng(setup.run_seed);
  std::vector<Rng> rngs = par::ForkRngs(rng, n);
  const auto classify = [&](std::size_t i) {
    const serve::ServeRequest& request = setup.requests[i];
    const auto [s, local] =
        setup.fleet->Route(request.client, request.arrival_s);
    const double offset_us = sync.SampleOffsetUs(rngs[i]);
    const core::SoftDecision decision =
        setup.fleet->shard(s).scheduler().ClassifyWithMargin(
            local, request.pixels, offset_us, rngs[i]);
    replay.predicted[i] = decision.predicted;
    replay.margins[i] = decision.margin;
  };
  const Stopwatch watch;
  if (workers <= 1) {
    for (const std::size_t i : order) {
      const Scope span(spans, "core.classify", parent,
                       static_cast<std::int64_t>(setup.requests[i].id));
      classify(i);
    }
  } else {
    const std::size_t chunks = static_cast<std::size_t>(workers);
    const std::size_t m = order.size();
    std::vector<std::exception_ptr> errors(chunks);
    std::vector<std::thread> pool;
    for (std::size_t c = 0; c < chunks; ++c) {
      pool.emplace_back([&, c] {
        try {
          for (std::size_t k = c * m / chunks; k < (c + 1) * m / chunks;
               ++k) {
            classify(order[k]);
          }
        } catch (...) {
          errors[c] = std::current_exception();
        }
      });
    }
    for (std::thread& worker : pool) worker.join();
    for (const std::exception_ptr& error : errors) {
      if (error) std::rethrow_exception(error);
    }
  }
  replay.elapsed = watch.Read();
  return replay;
}

/// Served requests in submission order.
std::vector<std::size_t> ServedIndices(
    const std::vector<serve::ServeResponse>& responses) {
  std::vector<std::size_t> served;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    if (responses[i].rejected == serve::RejectReason::kNone) {
      served.push_back(i);
    }
  }
  return served;
}

/// Served requests in the order a 1-thread Fleet::Run executes them:
/// shard by shard, each in dispatch (slot) order.
std::vector<std::size_t> DispatchOrder(
    const Setup& setup, const std::vector<serve::ServeResponse>& responses) {
  std::vector<std::size_t> order = ServedIndices(responses);
  const auto key = [&](std::size_t i) {
    const serve::ServeRequest& request = setup.requests[i];
    return std::make_pair(
        setup.fleet->Route(request.client, request.arrival_s).first,
        responses[i].start_s);
  };
  std::stable_sort(
      order.begin(), order.end(),
      [&](std::size_t a, std::size_t b) { return key(a) < key(b); });
  return order;
}

bool MatchesReplay(const fleet::FleetResult& result, const Replay& replay) {
  for (std::size_t i = 0; i < result.responses.size(); ++i) {
    if (result.responses[i].predicted != replay.predicted[i]) return false;
  }
  return true;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

void EmitIdentity(const std::string& workload, std::uint64_t seed,
                  const std::string& mode, int threads, bool tiny) {
  Line("identity")
      .Add("workload", workload)
      .Add("seed", static_cast<std::size_t>(seed))
      .Add("mode", mode)
      .Add("scale", tiny ? "tiny" : "full")
      .Add("simd", simd::LevelName(simd::ActiveLevel()))
      .Add("threads", threads)
      .Add("nproc", static_cast<int>(std::thread::hardware_concurrency()))
      .Emit();
}

void EmitSetup(const Setup& setup) {
  Line("setup")
      .Add("seconds", setup.total_s)
      .Add("generate_s", setup.generate_s)
      .Add("train_s", setup.train_s)
      .Add("create_s", setup.create_s)
      .Add("requests", setup.requests.size())
      .Emit();
}

/// Virtual-clock outcome of a pass (identical on every pass when the
/// exports are).
void EmitVirtual(const Setup& setup, const fleet::FleetResult& result) {
  const fleet::FleetStats& stats = result.stats;
  std::size_t labeled = 0;
  std::size_t correct = 0;
  for (std::size_t i = 0; i < result.responses.size(); ++i) {
    const serve::ServeResponse& r = result.responses[i];
    if (r.rejected != serve::RejectReason::kNone ||
        setup.requests[i].label < 0) {
      continue;
    }
    ++labeled;
    if (r.predicted == setup.requests[i].label) ++correct;
  }
  Line("virtual")
      .Add("submitted", stats.submitted)
      .Add("served", stats.served)
      .Add("refused", stats.rejected())
      .Add("refused_queue_full", stats.rejected_queue_full)
      .Add("frames", stats.frames)
      .Add("virtual_duration_s", stats.virtual_duration_s)
      .Add("slo_within", stats.slo_within)
      .Add("goodput_slo_rps", stats.goodput_slo_rps)
      .Add("latency_p50_ms", stats.latency_p50_s * 1e3)
      .Add("latency_p99_ms", stats.latency_p99_s * 1e3)
      .Add("latency_p999_ms", stats.latency_p999_s * 1e3)
      .Add("labeled", labeled)
      .Add("correct", correct)
      .Add("accuracy", labeled > 0 ? static_cast<double>(correct) /
                                         static_cast<double>(labeled)
                                   : 0.0)
      .Emit();
}

// ---------------------------------------------------------------------
// measure mode

int Measure(const std::string& workload, std::uint64_t seed, bool tiny,
            int threads, double seconds, int setups) {
  EmitIdentity(workload, seed, "measure", threads, tiny);
  const sim::SyncModel sync = SyncModel();
  // Set-up repeats: each one generates, trains and constructs from
  // scratch on a fresh (cold) cache; the last one is served.
  std::optional<Setup> setup;
  for (int k = 0; k < setups; ++k) {
    setup.reset();
    setup = MakeSetup(workload, seed, tiny, threads);
    EmitSetup(*setup);
  }

  // Reference predictions: one replay of the execute phase, after the
  // first pass (a 1-thread pass, itself checked like every other pass)
  // has decided which requests are served.
  const auto budget_start = Clock::now();
  std::optional<Replay> replay;
  std::string reference_exports;
  int pass_index = 0;
  const auto run_pass = [&](int pass_threads) {
    Line("pass_begin")
        .Add("pass", pass_index)
        .Add("threads", pass_threads)
        .Add("requests", setup->requests.size())
        .Emit();
    Pass pass = RunPass(*setup, sync, pass_threads);
    if (!replay) {
      replay = RunReplay(*setup, sync,
                         ServedIndices(pass.result.responses), threads);
      Line("replay")
          .Add("served", replay->served)
          .Add("seconds", replay->elapsed.wall_s)
          .Emit();
      reference_exports = pass.exports;
      EmitVirtual(*setup, pass.result);
    }
    const bool replay_match = MatchesReplay(pass.result, *replay);
    const bool exports_match = pass.exports == reference_exports;
    Line("pass")
        .Add("pass", pass_index)
        .Add("threads", pass_threads)
        .Add("run_s", pass.run.wall_s)
        .Add("export_s", pass.export_time.wall_s)
        .Add("submitted", pass.result.stats.submitted)
        .Add("served", pass.result.stats.served)
        .Add("refused", pass.result.stats.rejected())
        .Add("export_bytes", pass.exports.size())
        .Add("digest", Hex(Fnv1a(pass.exports, 0xcbf29ce484222325ull)))
        .Add("replay_match", replay_match)
        .Add("exports_match", exports_match)
        .Emit();
    ++pass_index;
  };
  // Alternate 1-thread passes (first: it feeds the replay's mask) and
  // multi-thread passes until the measuring budget is spent, with at
  // least one of each.
  do {
    run_pass(1);
    run_pass(threads);
  } while (Since(budget_start) < seconds);
  Line("end").Add("peak_rss_mb", PeakRssMb()).Emit();
  return 0;
}

// ---------------------------------------------------------------------
// trace mode

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Median of a copy.
double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

std::uint64_t CounterDelta(const obs::RegistrySnapshot& before,
                           const obs::RegistrySnapshot& after,
                           const std::string& name) {
  const auto find = [&](const obs::RegistrySnapshot& snap) -> std::uint64_t {
    for (const auto& [key, value] : snap.counters) {
      if (key == name) return value;
    }
    return 0;
  };
  return find(after) - find(before);
}

/// One per-layer figure; `count` is the sample count its ratio rests on.
void EmitLayer(const std::string& name, double value, const std::string& unit,
               const std::string& clock, double count) {
  Line("layer")
      .Add("name", name)
      .Add("value", value)
      .Add("unit", unit)
      .Add("clock", clock)
      .Add("count", count)
      .Emit();
}

int Trace(const std::string& workload, std::uint64_t seed, bool tiny,
          int threads, const std::string& spans_out) {
  EmitIdentity(workload, seed, "trace", threads, tiny);
  const sim::SyncModel sync = SyncModel();
  SpanLog spans;
  obs::Registry registry;

  // Set-up with the program's counters on (solver work) but its spans
  // off: no obs::Tracer is installed anywhere in this program.
  std::optional<Setup> setup;
  obs::RegistrySnapshot before_setup;
  obs::RegistrySnapshot after_setup;
  {
    const obs::ScopedRegistry scoped(&registry);
    before_setup = registry.Snapshot();
    const Scope span(&spans, "setup");
    setup = MakeSetup(workload, seed, tiny, threads, &spans, span.index());
    after_setup = registry.Snapshot();
  }
  EmitSetup(*setup);
  const fleet::Fleet& fleet = *setup->fleet;
  const std::size_t n = setup->requests.size();
  constexpr int kRounds = 2;
  // Fleet::Run passes: two per round plus the counted one.
  Line("plan").Add("passes", 2 * kRounds + 1).Emit();

  // core.map_weights: each tenant's mapping solved again, cold (no
  // cache), on the deployment's own link.
  std::vector<double> mapping_s;
  for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
    const auto [s, local] = fleet.Route(t, 0.0);
    const core::Deployment& deployment =
        fleet.shard(s).scheduler().deployment(local);
    core::MappingOptions options;
    options.scheme = core::MappingScheme::kSequential;
    const Scope span(&spans, "core.map_weights", -1,
                     static_cast<std::int64_t>(t));
    const auto t0 = Clock::now();
    const core::MappedSchedules mapped = core::MapWeights(
        setup->models[setup->tenant_model[t]].network.weights(),
        deployment.link(), options);
    mapping_s.push_back(Since(t0));
    if (mapped.rounds.size() != deployment.RoundsPerInference()) {
      std::fprintf(stderr, "cold re-mapping changed the round count\n");
      return 4;
    }
  }

  // Routing for the shard runs: the benchmark splits the trace itself
  // with Fleet::Route, carrying each request's forked stream.
  std::vector<std::vector<serve::ServeRequest>> shard_requests(
      fleet.num_shards());
  std::vector<std::vector<Rng>> shard_rngs(fleet.num_shards());
  std::vector<std::vector<std::size_t>> shard_globals(fleet.num_shards());
  {
    const Scope span(&spans, "fleet.route");
    Rng rng(setup->run_seed);
    std::vector<Rng> rngs = par::ForkRngs(rng, n);
    for (std::size_t i = 0; i < n; ++i) {
      const serve::ServeRequest& request = setup->requests[i];
      const auto [s, local] = fleet.Route(request.client, request.arrival_s);
      serve::ServeRequest routed = request;
      routed.client = local;
      shard_requests[s].push_back(std::move(routed));
      shard_rngs[s].push_back(rngs[i]);
      shard_globals[s].push_back(i);
    }
  }

  // Two rounds of the same four calls: a multi-thread pass, a 1-thread
  // pass, each shard's runtime on its sub-trace at 1 thread, and the
  // serial execute replay in dispatch order, with the program's
  // counters off. The second round makes the calls in reverse order, so
  // a linear drift of the box cancels in the mean of the two rounds.
  // Layer costs are read on the CPU clock of the (single) working
  // thread: the front door and the serve loop are differences of a few
  // percent between these calls, below the wall clock's resolution on a
  // virtual machine whose vCPUs are shared.
  std::vector<HostTime> pass_time;
  std::vector<double> pass_nt_wall;
  std::vector<double> export_cpu;
  std::vector<double> front_door;
  std::vector<double> serve_loop;
  std::vector<double> replay_cpu;
  std::optional<Pass> reference;  // the first 1-thread pass
  std::vector<std::size_t> dispatch;
  std::vector<serve::ServeResult> shard_results(fleet.num_shards());
  Replay replay;
  bool exports_match = true;
  bool replay_match = true;
  for (int round = 0; round < kRounds; ++round) {
    Pass pass_nt;
    Pass pass;
    double shard_cpu = 0.0;
    const auto run_nt = [&] { pass_nt = RunPass(*setup, sync, threads); };
    const auto run_1t = [&] {
      const Scope span(&spans, "pass", -1, round);
      pass = RunPass(*setup, sync, 1, &spans, span.index());
      if (!reference) {
        reference = pass;
        dispatch = DispatchOrder(*setup, pass.result.responses);
      }
    };
    const auto run_shards = [&] {
      const par::ScopedThreadCount one(1);
      for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
        if (!fleet.shard_active(s) || shard_requests[s].empty()) continue;
        std::vector<Rng> rngs = shard_rngs[s];
        const Scope span(&spans, "serve.run", -1,
                         static_cast<std::int64_t>(round * 100 + s));
        const Stopwatch watch;
        shard_results[s] =
            fleet.shard(s).Run(shard_requests[s], sync, std::span<Rng>(rngs));
        shard_cpu += watch.Read().cpu_s;
      }
    };
    const auto run_replay = [&] {
      const Scope span(&spans, "core.replay", -1, round);
      replay = RunReplay(*setup, sync, dispatch, 1, &spans, span.index());
    };
    if (round % 2 == 0) {
      run_nt();
      run_1t();
      run_shards();
      run_replay();
    } else {
      run_replay();
      run_shards();
      run_1t();
      run_nt();
    }
    exports_match = exports_match && pass.exports == reference->exports &&
                    pass_nt.exports == reference->exports;
    replay_match = replay_match && MatchesReplay(pass.result, replay) &&
                   MatchesReplay(pass_nt.result, replay);
    pass_time.push_back({pass.wall_s(), pass.cpu_s()});
    pass_nt_wall.push_back(pass_nt.wall_s());
    export_cpu.push_back(pass.export_time.cpu_s);
    front_door.push_back(pass.run.cpu_s - shard_cpu);
    serve_loop.push_back(shard_cpu - replay.elapsed.cpu_s);
    replay_cpu.push_back(replay.elapsed.cpu_s);
  }
  const Pass& plain = *reference;
  const double served = static_cast<double>(plain.result.stats.served);
  bool shards_match = true;
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const auto& mine = shard_results[s].responses;
    for (std::size_t j = 0; j < mine.size(); ++j) {
      if (mine[j].predicted !=
          plain.result.responses[shard_globals[s][j]].predicted) {
        shards_match = false;
      }
    }
  }

  // The traced pass: the program's counters on (link and OTA work).
  obs::RegistrySnapshot before_pass;
  obs::RegistrySnapshot after_pass;
  Pass traced;
  {
    const obs::ScopedRegistry scoped(&registry);
    before_pass = registry.Snapshot();
    const Scope span(&spans, "pass.counted");
    traced = RunPass(*setup, sync, 1);
    after_pass = registry.Snapshot();
  }
  exports_match = exports_match && traced.exports == plain.exports;

  // Frame compositions recovered from each shard's responses: a served
  // request belongs to the last timeseries tick at or before its
  // start_s. AllocateSlots + BuildFrame run on each composition.
  const std::size_t frame_budget = fleet.shard(0).options().frame_budget;
  std::vector<std::pair<std::size_t, std::vector<std::size_t>>> compositions;
  for (std::size_t s = 0; s < fleet.num_shards(); ++s) {
    const serve::ServeResult& result = shard_results[s];
    std::vector<double> ticks;
    for (const obs::TimeSeriesPoint& point : result.timeseries) {
      ticks.push_back(point.t_s);
    }
    const std::size_t first = compositions.size();
    for (std::size_t f = 0; f < ticks.size(); ++f) {
      compositions.push_back(
          {s, std::vector<std::size_t>(
                  fleet.shard(s).scheduler().num_devices(), 0)});
    }
    for (const serve::ServeResponse& r : result.responses) {
      if (r.rejected != serve::RejectReason::kNone) continue;
      const auto it = std::upper_bound(ticks.begin(), ticks.end(), r.start_s);
      ++compositions[first + static_cast<std::size_t>(it - ticks.begin()) - 1]
            .second[r.client];
    }
  }
  std::size_t slots = 0;
  bool frames_match = true;
  double build_frame_cpu = 0.0;
  {
    const Scope span(&spans, "core.scheduler.build_frame", -1,
                     static_cast<std::int64_t>(compositions.size()));
    const Stopwatch watch;
    for (const auto& [s, composition] : compositions) {
      const std::vector<std::size_t> granted =
          core::AllocateSlots(composition, frame_budget);
      slots += fleet.shard(s).scheduler().BuildFrame(granted).size();
      frames_match = frames_match && granted == composition;
    }
    build_frame_cpu = watch.Read().cpu_s;
  }
  const std::size_t frames = compositions.size();

  // Classify and transmit back to back on a sample of served requests
  // (evenly spaced in dispatch order), each on its own deployment and a
  // copy of its own stream: sim.link.transmit_us is the median
  // TransmitSequence call, core.deployment.readout_us the median of
  // classify minus the request's TransmitSequence calls (encoding,
  // score accumulation and the margin).
  std::vector<double> readout_us;
  {
    const par::ScopedThreadCount one(1);
    const std::size_t pairs =
        tiny ? 16 : (workload == "paper_cold" ? 96 : 512);
    const std::size_t stride =
        std::max<std::size_t>(1, dispatch.size() / pairs);
    Rng rng(setup->run_seed);
    const std::vector<Rng> rngs = par::ForkRngs(rng, n);
    for (std::size_t k = 0; k < dispatch.size(); k += stride) {
      const std::size_t i = dispatch[k];
      const serve::ServeRequest& request = setup->requests[i];
      const auto [s, local] = fleet.Route(request.client, request.arrival_s);
      const core::Deployment& deployment =
          fleet.shard(s).scheduler().deployment(local);
      const core::MappedSchedules& schedules = deployment.schedules();
      Rng classify_rng = rngs[i];
      const Stopwatch classify_watch;
      {
        const Scope span(&spans, "core.classify.paired", -1,
                         static_cast<std::int64_t>(request.id));
        const double offset_us = sync.SampleOffsetUs(classify_rng);
        fleet.shard(s).scheduler().ClassifyWithMargin(local, request.pixels,
                                                      offset_us, classify_rng);
      }
      const double classify_cpu = classify_watch.Read().cpu_s;
      Rng transmit_rng = rngs[i];
      const double offset_us = sync.SampleOffsetUs(transmit_rng);
      const std::vector<nn::Complex> symbols = data::EncodeSample(
          request.pixels,
          setup->models[setup->tenant_model[request.client]].modulation);
      double transmit_cpu = 0.0;
      for (std::size_t r = 0; r < schedules.rounds.size(); ++r) {
        const Scope span(&spans, "sim.link.transmit", -1,
                         static_cast<std::int64_t>(request.id));
        const Stopwatch watch;
        const ComplexMatrix z =
            schedules.upper_rounds.empty()
                ? deployment.link().TransmitSequence(
                      symbols, schedules.rounds[r], offset_us, transmit_rng)
                : deployment.link().TransmitSequence(
                      symbols, schedules.rounds[r], schedules.upper_rounds[r],
                      offset_us, transmit_rng);
        transmit_cpu += watch.Read().cpu_s;
        if (z.rows() == 0) return 4;
      }
      readout_us.push_back((classify_cpu - transmit_cpu) * 1e6);
    }
  }

  // obs.health.observe: one engine per tenant with the default link
  // rules, fed the replay's margins in dispatch order.
  double observe_cpu = 0.0;
  {
    std::vector<obs::health::AlertEngine> engines;
    for (std::size_t t = 0; t < fleet.num_tenants(); ++t) {
      obs::health::AlertEngine engine(static_cast<std::int32_t>(t));
      for (const obs::health::AlertRule& rule :
           obs::health::DefaultLinkHealthRules()) {
        engine.AddRule(rule);
      }
      engines.push_back(std::move(engine));
    }
    std::vector<obs::health::Alert> alerts;
    const Scope span(&spans, "obs.health.observe");
    const Stopwatch watch;
    for (const std::size_t i : dispatch) {
      const serve::ServeResponse& r = plain.result.responses[i];
      engines[r.client].Observe(obs::health::kSignalAccuracyProxy, r.finish_s,
                                replay.margins[i], alerts);
    }
    observe_cpu = watch.Read().cpu_s;
  }

  // simd.phased_sum: the scalar kernel on a fixed 256-atom input — a
  // machine-speed reference, independent of the code under test's
  // dispatch level.
  double phased_sum_ns = 0.0;
  {
    constexpr std::size_t kAtoms = 256;
    constexpr int kCalls = 20000;
    Rng rng(12345);
    std::vector<double> re(kAtoms);
    std::vector<double> im(kAtoms);
    std::vector<std::uint8_t> codes(kAtoms);
    for (std::size_t m = 0; m < kAtoms; ++m) {
      re[m] = rng.Uniform(-1.0, 1.0);
      im[m] = rng.Uniform(-1.0, 1.0);
      codes[m] = static_cast<std::uint8_t>(rng.UniformInt(std::uint64_t{4}));
    }
    std::vector<double> batches;
    double sum = 0.0;
    for (int b = 0; b < 7; ++b) {
      const Scope span(&spans, "simd.phased_sum", -1, b);
      const Stopwatch watch;
      for (int k = 0; k < kCalls; ++k) {
        codes[static_cast<std::size_t>(k) % kAtoms] ^= 1;
        sum += simd::PhasedSumScalar(re.data(), im.data(), codes.data(),
                                     kAtoms)
                   .real();
      }
      batches.push_back(watch.Read().cpu_s * 1e9 / kCalls);
    }
    phased_sum_ns = Median(batches);
    if (!std::isfinite(sum)) return 4;  // also keeps the calls live
  }

  // ---- per-layer figures ----
  std::vector<double> pass_cpu;
  for (const HostTime& t : pass_time) pass_cpu.push_back(t.cpu_s);
  const double pass_s = Mean(pass_cpu);
  const double front_door_s = Mean(front_door);
  const double export_s = Mean(export_cpu);
  std::vector<double> classify_us;
  for (const double d : spans.CpuDurations("core.classify")) {
    classify_us.push_back(d * 1e6);
  }
  const std::vector<double> transmit_s =
      spans.CpuDurations("sim.link.transmit");
  double rounds_total = 0.0;
  for (const std::size_t i : dispatch) {
    const auto [s, local] =
        fleet.Route(setup->requests[i].client, setup->requests[i].arrival_s);
    rounds_total += static_cast<double>(
        fleet.shard(s).scheduler().deployment(local).RoundsPerInference());
  }
  const double rounds = served > 0 ? rounds_total / served : 0.0;
  const double per_req = served > 0 ? 1e6 / served : 0.0;
  const double inferences = static_cast<double>(
      CounterDelta(before_pass, after_pass, "ota.inferences"));
  const double solver_calls = static_cast<double>(
      CounterDelta(before_setup, after_setup, "solver.calls"));
  const double solver_sweeps = static_cast<double>(
      CounterDelta(before_setup, after_setup, "solver.sweeps"));
  const mts::ConfigCache::Stats cache = fleet.cache()->stats();
  const double cache_lookups = static_cast<double>(cache.hits + cache.misses);
  const double attributed = front_door_s + Mean(replay_cpu) + build_frame_cpu +
                            observe_cpu + export_s;
  std::vector<double> pass_wall;
  for (const HostTime& t : pass_time) pass_wall.push_back(t.wall_s);

  EmitLayer("fleet.front_door_us_per_req", front_door_s * per_req, "us",
            "host_cpu", served);
  EmitLayer("serve.loop_us_per_req", Mean(serve_loop) * per_req, "us",
            "host_cpu", served);
  EmitLayer("serve.items_per_frame",
            frames > 0 ? served / static_cast<double>(frames) : 0.0,
            "items/frame", "virtual", static_cast<double>(frames));
  EmitLayer("serve.frames", static_cast<double>(frames), "count", "virtual",
            static_cast<double>(frames));
  EmitLayer("serve.slots", static_cast<double>(slots), "count", "virtual",
            static_cast<double>(frames));
  // A wall-clock ratio: the multi-thread pass spends CPU on several
  // threads.
  EmitLayer("serve.parallel_speedup", Mean(pass_wall) / Mean(pass_nt_wall),
            "ratio", "host", 2.0 * kRounds);
  {
    std::vector<double> waits;
    for (const serve::ServeResponse& r : plain.result.responses) {
      if (r.rejected == serve::RejectReason::kNone) {
        waits.push_back(r.start_s - r.arrival_s);
      }
    }
    EmitLayer("serve.queue_wait_p99_ms", obs::DigestTails(waits).p99 * 1e3,
              "ms_virtual", "virtual", static_cast<double>(waits.size()));
  }
  // Set-up steps run at the workload's thread count: wall clock.
  EmitLayer("serve.generator_us_per_req",
            spans.SelfTotal("serve.generate") * 1e6 / static_cast<double>(n),
            "us", "host", static_cast<double>(n));
  EmitLayer("core.training_s", spans.SelfTotal("core.train"), "s", "host",
            static_cast<double>(setup->models.size()));
  EmitLayer("core.mapping_s_per_tenant", Median(mapping_s), "s", "host",
            static_cast<double>(mapping_s.size()));
  EmitLayer("core.scheduler.build_frame_us",
            frames > 0 ? build_frame_cpu * 1e6 / static_cast<double>(frames)
                       : 0.0,
            "us", "host_cpu", static_cast<double>(frames));
  EmitLayer("core.deployment.classify_us", Median(classify_us), "us",
            "host_cpu", static_cast<double>(classify_us.size()));
  EmitLayer("core.deployment.readout_us", Median(readout_us), "us",
            "host_cpu", static_cast<double>(readout_us.size()));
  EmitLayer("core.deployment.rounds_per_inference", rounds, "count",
            "virtual", served);
  EmitLayer("sim.link.transmit_us", Median(transmit_s) * 1e6, "us",
            "host_cpu", static_cast<double>(transmit_s.size()));
  EmitLayer("sim.link.symbols_per_inference",
            inferences > 0
                ? static_cast<double>(CounterDelta(before_pass, after_pass,
                                                   "link.symbols")) /
                      inferences
                : 0.0,
            "count", "virtual", inferences);
  EmitLayer("sim.link.awgn_draws",
            static_cast<double>(
                CounterDelta(before_pass, after_pass, "link.awgn_draws")),
            "count", "virtual", inferences);
  EmitLayer("mts.solver.calls", solver_calls, "count", "virtual", 1.0);
  EmitLayer("mts.solver.sweeps", solver_sweeps, "count", "virtual", 1.0);
  EmitLayer("mts.solver.sweeps_per_call",
            solver_calls > 0 ? solver_sweeps / solver_calls : 0.0, "ratio",
            "virtual", solver_calls);
  EmitLayer("mts.cache.hits", static_cast<double>(cache.hits), "count",
            "virtual", cache_lookups);
  EmitLayer("mts.cache.misses", static_cast<double>(cache.misses), "count",
            "virtual", cache_lookups);
  EmitLayer("mts.cache.hit_ratio",
            cache_lookups > 0 ? static_cast<double>(cache.hits) / cache_lookups
                              : 0.0,
            "ratio", "virtual", cache_lookups);
  EmitLayer("obs.health.observe_ns",
            dispatch.empty()
                ? 0.0
                : observe_cpu * 1e9 / static_cast<double>(dispatch.size()),
            "ns", "host_cpu", static_cast<double>(dispatch.size()));
  EmitLayer("obs.export_us_per_req", export_s * per_req, "us", "host_cpu",
            served);
  EmitLayer("obs.export_bytes_per_req",
            served > 0 ? static_cast<double>(plain.exports.size()) / served
                       : 0.0,
            "B", "host", served);
  EmitLayer("simd.phased_sum_ns", phased_sum_ns, "ns", "host_cpu", 7.0);
  EmitLayer("trace.unattributed_share", 1.0 - attributed / pass_s, "share",
            "host_cpu", static_cast<double>(kRounds));
  EmitLayer("trace.overhead_share", traced.cpu_s() / pass_s - 1.0, "share",
            "host_cpu", static_cast<double>(kRounds));

  Line("checks")
      .Add("replay_match", replay_match)
      .Add("exports_match", exports_match)
      .Add("shards_match", shards_match)
      .Add("frames_match", frames_match)
      .Add("submitted", plain.result.stats.submitted)
      .Add("served", plain.result.stats.served)
      .Add("digest", Hex(Fnv1a(plain.exports, 0xcbf29ce484222325ull)))
      .Emit();
  EmitVirtual(*setup, plain.result);
  if (!spans_out.empty() && !spans.Write(spans_out)) {
    std::fprintf(stderr, "cannot write spans to %s\n", spans_out.c_str());
    return 4;
  }
  Line("end").Add("peak_rss_mb", PeakRssMb()).Add("spans", spans_out).Emit();
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: hostbench_serve --workload "
               "{fleet_sharded|fleet_overload|paper_cold} --seed N "
               "--mode {measure|trace} [--seconds S] [--threads T] "
               "[--setups K] [--tiny] [--spans-out PATH]\n");
  return 2;
}

}  // namespace
}  // namespace hostbench

int main(int argc, char** argv) {
  std::string workload;
  std::string mode;
  std::string spans_out;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  int threads = 1;
  int setups = 1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--tiny") {
      tiny = true;
    } else if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--mode" && has_value) {
      mode = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds" && has_value) {
      seconds = std::atof(argv[++i]);
    } else if (arg == "--threads" && has_value) {
      threads = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--setups" && has_value) {
      setups = std::max(1, std::atoi(argv[++i]));
    } else if (arg == "--spans-out" && has_value) {
      spans_out = argv[++i];
    } else {
      return hostbench::Usage();
    }
  }
  const bool known = workload == "fleet_sharded" ||
                     workload == "fleet_overload" || workload == "paper_cold";
  if (!have_seed || !known) {
    return hostbench::Usage();
  }
  if (mode == "measure") {
    return hostbench::Measure(workload, seed, tiny, threads, seconds, setups);
  }
  if (mode == "trace") {
    return hostbench::Trace(workload, seed, tiny, threads, spans_out);
  }
  return hostbench::Usage();
}
