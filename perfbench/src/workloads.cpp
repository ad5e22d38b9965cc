#include "workloads.h"

#include <cpuid.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>

#include "api/detector_registry.h"
#include "api/score.h"
#include "client.h"
#include "common/checksum.h"
#include "common/mapped_file.h"
#include "common/rng.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "datasets/dvfs_dataset.h"
#include "datasets/hpc_dataset.h"
#include "jit/jit.h"
#include "oracle.h"
#include "serve/batcher.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "simd/cpu.h"
#include "simd/vmath.h"

namespace pb {

namespace {

namespace fs = std::filesystem;
namespace api = hmd::api;
namespace core = hmd::core;
namespace serve = hmd::serve;
namespace wire = hmd::serve::wire;
using hmd::Matrix;

// ---------------------------------------------------------------------------
// Fixed workload parameters (the README explains each choice).

constexpr int kMembers = 100;
constexpr int kSetupReps = 3;
/// DVFS unknown split at 3x Table I (852 rows), so the paper-claim
/// fraction is a tight estimate on every seed.
constexpr std::size_t kDvfsUnknown = 852;
/// HPC training rows: the shape `hmd_train --dataset=hpc --scale=0.18`
/// makes (round(44605 * 0.18)); its forest stays under the JIT node cap.
constexpr std::size_t kHpcTrain = 8029;
constexpr std::size_t kFirstBatchRows = 256;
/// Open-loop rates, well below the closed-loop peak on a 4-vCPU host
/// (about 2 % of it for DVFS, 15 % for HPC).
constexpr double kDvfsOpenRps = 2000.0;
constexpr double kHpcOpenRps = 250.0;
/// Closed loop: requests outstanding per connection. Deep enough that the
/// server nearly always finds requests queued, so batch sizes (and with
/// them the CPU per row) depend little on the client's pace.
constexpr int kPipeline = 32;
/// Serve workloads: rounds per run, and the shares of --seconds spent in
/// the closed- and open-loop slices.
constexpr int kServeRounds = 5;
constexpr double kClosedShare = 0.4;
constexpr double kOpenShare = 0.6;
constexpr std::size_t kP99Window = 200;
/// Churn block: key requests and unregistered-key probes. At the Zipf
/// exponent below, 15 key requests hold 5 to the deep-forest copies, each
/// a reload with its JIT compile (~0.2 s), so a block takes about 1 s.
constexpr std::size_t kChurnKeyRequests = 15;
constexpr std::size_t kChurnProbes = 5;
/// YCSB's Zipfian constant (Cooper et al., "Benchmarking Cloud Serving
/// Systems with YCSB", SoCC 2010), a common key-popularity skew for
/// serving benchmarks; no measured detector-fleet trace is public.
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kChurnRows = 4;
constexpr int kDeepForestCopies = 5;
/// Untrusted-flag shares the paper claims on DVFS (unknown >= 90 %,
/// known <= 5 %).
constexpr double kClaimUnknownMin = 0.90;
constexpr double kClaimKnownMax = 0.05;

int nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : static_cast<int>(n);
}

/// Lanes of each loaded detector's thread pool (the calling thread is one
/// of them): the widest pool that leaves a core to the client and one to
/// the server loop, so the serve workloads run the pool-split scoring path
/// that a default `hmd_serve` uses, within nproc threads.
int pool_lanes() { return std::max(1, nproc() - 2); }

/// Rows answered per second in each whole kWindowSeconds window of a
/// closed-loop phase (the record's wall rows/s is their median: robust to
/// host stalls, like windowed_p99 below).
std::vector<double> windowed_rates(const ClientReport& r) {
  std::vector<double> rates;
  // The last window is partial (it holds the drain).
  for (std::size_t w = 0; w + 1 < r.rows_per_window.size(); ++w) {
    rates.push_back(static_cast<double>(r.rows_per_window[w]) / kWindowSeconds);
  }
  return rates;
}

/// p99 of each window of kP99Window consecutive samples, median over the
/// windows. A host stall (a few ms every second or so on a shared VM)
/// lands in a minority of windows and does not move it; a stall of the
/// program that recurs in most windows does.
double windowed_p99(const std::vector<double>& samples) {
  const std::size_t windows =
      std::max<std::size_t>(samples.size() / kP99Window, 1);
  const std::size_t width = samples.size() / windows;
  std::vector<double> p99;
  for (std::size_t w = 0; w < windows; ++w) {
    const auto first = samples.begin() + static_cast<long>(w * width);
    p99.push_back(percentile(
        std::vector<double>(first, first + static_cast<long>(width)), 0.99));
  }
  return median(p99);
}

std::string fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string cpu_model() {
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string s(text);
  s.erase(0, s.find_first_not_of(' '));
  return s;
}

const char* policy_name(hmd::jit::Policy p) {
  switch (p) {
    case hmd::jit::Policy::kAuto: return "auto";
    case hmd::jit::Policy::kOn: return "on";
    case hmd::jit::Policy::kOff: return "off";
  }
  return "?";
}

/// Restores the JIT policy it found when it goes out of scope.
class JitPolicyScope {
 public:
  explicit JitPolicyScope(hmd::jit::Policy p) : saved_(hmd::jit::policy()) {
    hmd::jit::set_policy(p);
  }
  ~JitPolicyScope() { hmd::jit::set_policy(saved_); }
  JitPolicyScope(const JitPolicyScope&) = delete;
  JitPolicyScope& operator=(const JitPolicyScope&) = delete;

 private:
  hmd::jit::Policy saved_;
};

/// CPU time of the whole process (every thread), in seconds.
double seconds_of(const timespec& ts) {
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double process_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return seconds_of(ts);
}

/// CPU time of every thread but the calling one: in a served session the
/// client runs on the calling thread, so this is the server loop and the
/// detector pools' workers.
double other_threads_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return process_cpu_s() - seconds_of(ts);
}

/// Wall and process-CPU time of one timed event. The end-to-end figures
/// are CPU time: on a shared VM the wall figures of the same build moved
/// by 2x with the neighbours' load while CPU time stayed within a few
/// percent (see the README); the wall figures go to the run record.
struct Stopwatch {
  Clock::time_point wall0 = Clock::now();
  double cpu0 = process_cpu_s();
  double wall_ms() const { return ms_between(wall0, Clock::now()); }
  double cpu_ms() const { return (process_cpu_s() - cpu0) * 1e3; }
};

struct Samples {
  std::vector<double> cpu_ms, wall_ms;
  void add(const Stopwatch& watch) {
    cpu_ms.push_back(watch.cpu_ms());
    wall_ms.push_back(watch.wall_ms());
  }
};

std::uint64_t g_span_id = 0;
std::uint64_t next_id() { return ++g_span_id; }

// ---------------------------------------------------------------------------
// Models, keys and the run state.

/// One trained model shape with its versions and their oracles. Version 1
/// is a retrain with another seed: what a field update publishes.
struct Model {
  std::string shape;  ///< dvfs_rf | hpc_rf | hpc_lr | hpc_svm
  std::string kind;   ///< rf | lr | svm
  std::unique_ptr<core::TrustedHmd> version[2];
  std::string staged[2];  ///< artifact of each version, as saved
  const Matrix* source = nullptr;
  std::size_t known_rows = 0;  ///< source rows [0, known_rows) are known
  std::unique_ptr<Oracle> oracle[2];
};

/// One registry key: its live artifact file and the version it holds.
struct Key {
  std::string name;
  std::string path;
  std::size_t model = 0;
  int current = 0;
};

struct Setup {
  hmd::data::DatasetBundle dvfs, hpc;
  Matrix dvfs_source, hpc_source;
  std::size_t dvfs_known = 0, hpc_known = 0;
  std::vector<Model> models;
  double generate_ms = 0.0;
  std::map<std::string, double> fit_s;
};

struct Counters {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_error;
  void fail(const std::string& why) {
    ++failed;
    if (first_error.empty()) first_error = why;
  }
};

core::ModelKind kind_of(const std::string& kind) {
  if (kind == "lr") return core::ModelKind::kBaggedLogistic;
  if (kind == "svm") return core::ModelKind::kBaggedSvm;
  return core::ModelKind::kRandomForest;
}

const char* fit_span(const std::string& kind) {
  if (kind == "lr") return "ml.fit.lr";
  if (kind == "svm") return "ml.fit.svm";
  return "ml.fit.rf";
}

std::uint64_t dvfs_data_seed(std::uint64_t seed) { return 1000 + 2 * seed; }
std::uint64_t hpc_data_seed(std::uint64_t seed) { return 1001 + 2 * seed; }
std::uint64_t model_seed(std::uint64_t seed, int version) {
  return seed * 7919 + static_cast<std::uint64_t>(version) * 104729 + 1;
}

/// Known rows then unknown rows, each split cut to a multiple of `step`
/// and to at most `per_split` rows (0 = all).
Matrix concat_splits(const hmd::data::DatasetBundle& b, std::size_t step,
                     std::size_t per_split, std::size_t* known) {
  Matrix out;
  auto take = [&](const Matrix& x) {
    std::size_t n = x.rows() - x.rows() % step;
    if (per_split > 0) n = std::min(n, per_split);
    for (std::size_t r = 0; r < n; ++r) out.push_row(x.row(r));
    return n;
  };
  *known = take(b.test.X);
  take(b.unknown.X);
  return out;
}

std::unique_ptr<core::TrustedHmd> fit_model(const std::string& kind,
                                            const hmd::ml::Dataset& train,
                                            std::uint64_t seed,
                                            double* fit_seconds) {
  core::HmdConfig config;
  config.model = kind_of(kind);
  config.n_members = kMembers;
  config.n_threads = nproc();
  config.seed = seed;
  auto hmd_model = std::make_unique<core::TrustedHmd>(config);
  const auto t0 = Clock::now();
  {
    ScopedSpan span(fit_span(kind));
    hmd_model->fit(train);
  }
  *fit_seconds = ms_between(t0, Clock::now()) / 1e3;
  return hmd_model;
}

/// Generate the datasets and fit every model shape of `shapes` (version 1
/// too when `retrain`), saving each version under `dir`. The benchmark's
/// own copies are fitted with the JIT off: they are only saved and used
/// by the oracle, and the serving loads compile under the default policy.
void build_models(Setup& s, const Args& args,
                  const std::vector<std::string>& shapes,
                  const std::vector<bool>& retrain, const std::string& dir,
                  bool per_split_cap) {
  const JitPolicyScope fit_policy(hmd::jit::Policy::kOff);
  bool need_dvfs = false, need_hpc = false;
  for (const std::string& shape : shapes) {
    (shape.rfind("dvfs", 0) == 0 ? need_dvfs : need_hpc) = true;
  }
  const auto g0 = Clock::now();
  {
    ScopedSpan span("datasets.generate");
    if (need_dvfs) {
      hmd::data::DvfsDatasetConfig config;
      config.seed = dvfs_data_seed(args.seed);
      config.n_unknown = kDvfsUnknown;
      s.dvfs = hmd::data::build_dvfs_dataset(config);
    }
    if (need_hpc) {
      hmd::data::HpcDatasetConfig config;
      config.seed = hpc_data_seed(args.seed);
      config.n_train = kHpcTrain;
      s.hpc = hmd::data::build_hpc_dataset(config);
    }
  }
  s.generate_ms = ms_between(g0, Clock::now());
  const std::size_t cap = per_split_cap ? kFirstBatchRows / 2 : 0;
  if (need_dvfs) s.dvfs_source = concat_splits(s.dvfs, 4, cap, &s.dvfs_known);
  if (need_hpc) s.hpc_source = concat_splits(s.hpc, 64, cap, &s.hpc_known);

  s.models.clear();
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    Model m;
    m.shape = shapes[i];
    m.kind = m.shape.substr(m.shape.find('_') + 1);
    const bool dvfs = m.shape.rfind("dvfs", 0) == 0;
    const hmd::ml::Dataset& train = dvfs ? s.dvfs.train : s.hpc.train;
    m.source = dvfs ? &s.dvfs_source : &s.hpc_source;
    m.known_rows = dvfs ? s.dvfs_known : s.hpc_known;
    for (int v = 0; v < (retrain[i] ? 2 : 1); ++v) {
      double seconds = 0.0;
      m.version[v] = fit_model(m.kind, train, model_seed(args.seed, v),
                               &seconds);
      if (v == 0) s.fit_s[m.kind] = seconds;
      m.staged[v] = dir + "/" + m.shape + "_v" + std::to_string(v) + ".hmdf";
      ScopedSpan span("core.artifact.save");
      core::save_model(*m.version[v], m.staged[v]);
    }
    s.models.push_back(std::move(m));
  }
}

void build_oracles(Setup& s) {
  for (Model& m : s.models) {
    for (int v = 0; v < 2; ++v) {
      if (m.version[v] != nullptr) {
        m.oracle[v] = std::make_unique<Oracle>(*m.version[v], *m.source);
      }
    }
  }
}

/// Owns a running ScoreServer thread; stop() (or the destructor) stops
/// and joins it.
class ServerHandle {
 public:
  ServerHandle(api::DetectorRegistry& registry, serve::ServerOptions options)
      : server_(registry, std::move(options)), thread_([this] {
          try {
            server_.run();
          } catch (const std::exception& error) {
            error_ = error.what();
          }
        }) {}
  ~ServerHandle() { stop(); }
  ServerHandle(const ServerHandle&) = delete;
  ServerHandle& operator=(const ServerHandle&) = delete;

  void stop() {
    if (thread_.joinable()) {
      server_.request_stop();
      thread_.join();
    }
  }
  serve::ScoreServer& server() { return server_; }
  const std::string& error() const { return error_; }

 private:
  serve::ScoreServer server_;
  std::string error_;
  std::thread thread_;  // last: starts after the members it uses
};

PlannedRequest plan_request(const Key& key, const Model& model,
                            std::uint32_t key_index, core::Accuracy tier,
                            std::size_t row_start, std::size_t rows,
                            api::OutputMask mask) {
  PlannedRequest p;
  p.model = key_index;
  p.tier = tier;
  p.row_start = static_cast<std::uint32_t>(row_start);
  p.rows = static_cast<std::uint32_t>(rows);
  wire::append_request(p.frame, 0, key.name, mask, std::nullopt,
                       model.source->row_ptr(row_start), rows,
                       model.source->cols(), tier);
  return p;
}

/// Score the first kFirstBatchRows source rows of `key` straight through
/// the registry and check them against the oracle of the key's version.
std::string score_first_batch(api::DetectorRegistry& registry, const Key& key,
                              const Model& model, api::OutputMask mask,
                              const Matrix& batch, api::ScoreResult& result) {
  std::shared_ptr<const core::TrustedHmd> detector;
  {
    ScopedSpan span("api.registry.get", next_id());
    detector = registry.get(key.name);
  }
  api::ScoreRequest request;
  request.x = &batch;
  request.outputs = mask;
  {
    ScopedSpan span("api.score", 0, batch.rows());
    detector->score(request, result);
  }
  return check_rows(result, 0, mask, core::Accuracy::kExact,
                    *model.oracle[key.current], 0, batch.rows());
}

/// The first `n` rows of `source`, wrapping round when it is shorter.
Matrix rows_of(const Matrix& source, std::size_t n) {
  Matrix out;
  for (std::size_t r = 0; r < n; ++r) {
    out.push_row(source.row(r % source.rows()));
  }
  return out;
}

/// Cold start of `key`: re-point it (a fresh, unloaded registry entry),
/// then time its first get() and first scored batch.
void cold_start(api::DetectorRegistry& registry, const Key& key,
                const Model& model, api::OutputMask mask, const Matrix& batch,
                Counters& counters, Samples& samples) {
  registry.add(key.name, key.path);
  api::ScoreResult result;
  ++counters.attempted;
  const Stopwatch watch;
  std::string why;
  {
    ScopedSpan span("publish.cold_start", next_id());
    why = score_first_batch(registry, key, model, mask, batch, result);
  }
  samples.add(watch);
  if (!why.empty()) counters.fail("cold start " + key.name + ": " + why);
}

/// Publish the other version of `key` with save_model (temp file, then
/// rename) and pick it up with refresh(). Returns the publish time.
void publish(api::DetectorRegistry& registry, Key& key, const Model& model,
             Samples& save, Samples& refresh) {
  const int next = 1 - key.current;
  {
    const Stopwatch watch;
    ScopedSpan span("core.artifact.save");
    core::save_model(*model.version[next], key.path);
    save.add(watch);
  }
  {
    const Stopwatch watch;
    ScopedSpan span("api.registry.refresh");
    registry.refresh();
    refresh.add(watch);
  }
  key.current = next;
}

// ---------------------------------------------------------------------------
// A served session: closed loop, then open loop, against a ScoreServer.

/// Untrusted-flag tallies over served DVFS rows, for the paper's claim.
struct Claim {
  std::uint64_t known_rows = 0, known_untrusted = 0;
  std::uint64_t unknown_rows = 0, unknown_untrusted = 0;

  void add(const api::ScoreResult& r, std::size_t row_start, std::size_t rows,
           std::size_t known_split_rows) {
    for (std::size_t i = 0; i < rows; ++i) {
      const bool known = row_start + i < known_split_rows;
      const bool untrusted = r.trusted[i] == 0;
      (known ? known_rows : unknown_rows) += 1;
      (known ? known_untrusted : unknown_untrusted) += untrusted ? 1 : 0;
    }
  }
};

/// The paper's claim on DVFS: at least 90 % of unknown-split rows flagged
/// untrusted and at most 5 % of known rows. The check is one operation.
void check_claim(const Claim& c, RunResult& out, Counters& counters) {
  const auto share = [](std::uint64_t part, std::uint64_t whole) {
    return static_cast<double>(part) /
           std::max(1.0, static_cast<double>(whole));
  };
  const double unknown = share(c.unknown_untrusted, c.unknown_rows);
  const double known = share(c.known_untrusted, c.known_rows);
  out.record.emplace_back("unknown_untrusted_share", fmt(unknown));
  out.record.emplace_back("known_untrusted_share", fmt(known));
  ++counters.attempted;
  if (c.unknown_rows == 0 || unknown < kClaimUnknownMin ||
      known > kClaimKnownMax) {
    counters.fail("paper claim not met: unknown untrusted " + fmt(unknown) +
                  ", known untrusted " + fmt(known));
  }
}

struct Session {
  /// Merged over the rounds of the run.
  ClientReport closed, open;
  std::vector<double> closed_rates;  ///< rows/s per kRateWindowS window
  double server_cpu_s = 0.0;  ///< server-side CPU time in closed loops
  double open_server_cpu_s = 0.0;  ///< and in open loops
  std::uint64_t closed_rows = 0;
  serve::ServerStats server;
  serve::BatcherStats batcher;
  Claim claim;
};

Verifier make_verifier(const std::vector<Key>& keys,
                       const std::vector<Model>& models, api::OutputMask mask,
                       Session* tally) {
  return [&keys, &models, mask, tally](const PlannedRequest& p,
                                       const api::ScoreResult& r) {
    const Key& key = keys[p.model];
    const Model& model = models[key.model];
    std::string why = check_rows(r, 0, mask, p.tier, *model.oracle[key.current],
                                 p.row_start, p.rows);
    if (why.empty() && tally != nullptr && (mask & api::kOutTrusted)) {
      tally->claim.add(r, p.row_start, p.rows, model.known_rows);
    }
    return why;
  };
}

void merge_into(ClientReport& into, ClientReport&& from) {
  into.attempted += from.attempted;
  into.failed += from.failed;
  into.rows_ok += from.rows_ok;
  into.reordered += from.reordered;
  into.latency_us.insert(into.latency_us.end(), from.latency_us.begin(),
                         from.latency_us.end());
  into.lateness_us.insert(into.lateness_us.end(), from.lateness_us.begin(),
                          from.lateness_us.end());
  if (into.stream.empty()) into.stream = std::move(from.stream);
  if (into.first_error.empty()) into.first_error = from.first_error;
}

/// One round of a served session: a closed-loop slice, then an open-loop
/// slice; reports are merged into `session`.
void run_session(Session& session, ServerHandle& handle,
                 const std::vector<PlannedRequest>& plan,
                 const Verifier& verify, double closed_s, double open_s,
                 double open_rps, RssSampler& rss,
                 Counters& counters, bool record_stream) {
  ClientOptions options;
  options.port = handle.server().port();
  options.connections = std::min(4, nproc());
  options.pipeline = kPipeline;
  options.plan = &plan;
  options.verify = verify;
  options.rss = &rss;
  options.seconds = closed_s;
  options.record_stream = record_stream;
  options.trace_every = 16;  // the closed loop answers ~10^5 requests/s
  options.plan_offset = session.closed.attempted + session.open.attempted;
  ClientReport closed, open;
  const double cpu0 = other_threads_cpu_s();
  {
    ScopedSpan span("phase.closed_loop");
    closed = run_client(options);
  }
  session.server_cpu_s += other_threads_cpu_s() - cpu0;
  session.closed_rows += closed.rows_ok;
  for (const double rate : windowed_rates(closed)) {
    session.closed_rates.push_back(rate);
  }
  options.rate_rps = open_rps;
  options.seconds = open_s;
  options.record_stream = false;
  options.trace_every = 1;
  options.plan_offset += closed.attempted;
  const double cpu1 = other_threads_cpu_s();
  {
    ScopedSpan span("phase.open_loop");
    open = run_client(options);
  }
  session.open_server_cpu_s += other_threads_cpu_s() - cpu1;
  for (ClientReport* r : {&closed, &open}) {
    counters.attempted += r->attempted;
    counters.failed += r->failed;
    if (counters.first_error.empty() && !r->first_error.empty()) {
      counters.first_error = r->first_error;
    }
  }
  merge_into(session.closed, std::move(closed));
  merge_into(session.open, std::move(open));
}

// ---------------------------------------------------------------------------
// The per-layer panel of the traced run.

struct PanelModel {
  std::string kind;
  std::string key;   ///< registered in the panel registry
  std::string path;  ///< artifact
  const Matrix* source = nullptr;
};

struct PanelInput {
  api::DetectorRegistry* registry = nullptr;  ///< holds every panel key
  std::vector<PanelModel> serving;  ///< the workload's served shapes
  std::vector<PanelModel> kinds;    ///< one model per kind: rf, lr, svm
  api::OutputMask mask = api::kDetectionOutputs;
  std::size_t rows_per_request = 4;
  const Session* session = nullptr;
  const std::vector<PlannedRequest>* plan = nullptr;
  std::vector<std::string> plan_keys;  ///< PlannedRequest::model -> key
  int pool_width = 1;
  std::string dir;
  /// Churn counters from the workload itself (publish-churn); when
  /// churn_requests == 0 the panel runs its own small churn.
  std::uint64_t churn_requests = 0, churn_evictions = 0, churn_reloads = 0;
  double churn_resident_mb = 0.0;
  /// Medians of the workload's own publishes (process CPU ms).
  double save_ms = 0.0, refresh_ms = 0.0;
};

/// Run `body` repeatedly for at least `min_ms` and return calls/second.
/// One span covers the whole loop (n = operations).
template <typename F>
double rate_per_s(const char* span_name, std::uint64_t ops_per_call,
                  double min_ms, F&& body) {
  body();  // warm
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  Clock::time_point now;
  do {
    body();
    ++calls;
    now = Clock::now();
  } while (ms_between(t0, now) < min_ms);
  tracer().record(span_name, 0, t0, now, calls * ops_per_call);
  return static_cast<double>(calls * ops_per_call) /
         std::chrono::duration<double>(now - t0).count();
}

using Record = std::vector<std::pair<std::string, std::string>>;

std::vector<Metric> layer_panel(const PanelInput& in, const Setup& setup,
                                Record& record) {
  std::vector<Metric> out;
  auto add = [&](const char* name, double value, const char* unit) {
    out.push_back(Metric{name, value, unit});
  };
  api::DetectorRegistry& registry = *in.registry;
  const Session& session = *in.session;
  const core::UncertaintyMode mode = core::UncertaintyMode::kVoteEntropy;

  // serve.wire: encode and decode at the workload's request shape.
  const PanelModel& first = in.serving.front();
  const Matrix& src = *first.source;
  const std::size_t rows = std::min(in.rows_per_request, src.rows());
  const Matrix req_rows = rows_of(src, rows);
  auto detector0 = registry.get(first.key);
  api::ScoreResult direct;
  {
    api::ScoreRequest request;
    request.x = &req_rows;
    request.outputs = in.mask;
    detector0->score(request, direct);
  }
  constexpr std::uint64_t kLoop = 2000;
  std::vector<unsigned char> buf;
  std::vector<double> enc, renc, rdec;
  for (int rep = 0; rep < 5; ++rep) {
    auto t0 = Clock::now();
    {
      ScopedSpan span("serve.wire.request_encode", 0, kLoop);
      for (std::uint64_t i = 0; i < kLoop; ++i) {
        buf.clear();
        wire::append_request(buf, static_cast<std::uint32_t>(i), first.key,
                             in.mask, std::nullopt, req_rows.row_ptr(0), rows,
                             req_rows.cols());
      }
    }
    enc.push_back(us_between(t0, Clock::now()) / kLoop);
    t0 = Clock::now();
    {
      ScopedSpan span("serve.wire.result_encode", 0, kLoop);
      for (std::uint64_t i = 0; i < kLoop; ++i) {
        buf.clear();
        wire::append_result(buf, static_cast<std::uint32_t>(i), in.mask,
                            direct, 0, rows);
      }
    }
    renc.push_back(us_between(t0, Clock::now()) / kLoop);
    api::ScoreResult unpacked;
    t0 = Clock::now();
    {
      ScopedSpan span("serve.wire.result_decode_loop", 0, kLoop);
      for (std::uint64_t i = 0; i < kLoop; ++i) {
        wire::Frame frame;
        wire::parse_frame(buf.data(), buf.size(), 64u << 20, frame);
        wire::unpack_result(frame.result, unpacked);
      }
    }
    rdec.push_back(us_between(t0, Clock::now()) / kLoop);
  }
  const double request_encode_us = median(enc);
  const double result_encode_us = median(renc);
  const double result_decode_us = median(rdec);
  add("serve.wire.request_encode_us", request_encode_us, "us");
  add("serve.wire.result_encode_us", result_encode_us, "us");
  add("serve.wire.result_decode_us", result_decode_us, "us");

  // serve.batcher: replay the recorded closed-loop stream through a
  // directly driven MicroBatcher, minus a direct score() of the same
  // batches.
  struct Batch {
    std::string key;
    core::Accuracy tier;
    std::vector<std::uint32_t> plan_index;
  };
  std::vector<Batch> batches;
  std::vector<std::uint32_t> id_to_plan;
  const std::vector<PlannedRequest>& plan = *in.plan;
  const std::size_t n_replay =
      std::min<std::size_t>(session.closed.stream.size(), 20000);
  std::vector<wire::Frame> frames(n_replay);
  for (std::size_t i = 0; i < n_replay; ++i) {
    const PlannedRequest& p = plan[session.closed.stream[i]];
    wire::parse_frame(p.frame.data(), p.frame.size(), 64u << 20, frames[i]);
    id_to_plan.push_back(session.closed.stream[i]);
  }
  const auto replay = [&](bool record_batches) {
    serve::MicroBatcher batcher(
        registry, serve::BatcherOptions{},
        [&](const serve::BatchItem& item, const api::ScoreResult&) {
          if (!record_batches) return;
          if (item.row_begin == 0) {
            const std::uint32_t index = id_to_plan[item.request_id];
            batches.push_back(
                Batch{in.plan_keys[plan[index].model], item.accuracy, {}});
          }
          batches.back().plan_index.push_back(id_to_plan[item.request_id]);
        },
        [&](const serve::BatchItem&, wire::ErrorCode, const std::string&) {});
    const auto t0 = Clock::now();
    {
      ScopedSpan span("serve.batcher.replay", 0, n_replay);
      for (std::size_t i = 0; i < n_replay; ++i) {
        const wire::RequestView& r = frames[i].request;
        batcher.enqueue(0, static_cast<std::uint32_t>(i), r.model_key,
                        r.outputs, r.mode, r.features, r.rows, r.cols,
                        r.accuracy);
      }
      batcher.flush_all();
    }
    return ms_between(t0, Clock::now());
  };
  double replay_ms = replay(true);
  std::vector<Matrix> inputs;
  for (const Batch& b : batches) {
    const Matrix* source = in.serving.front().source;
    for (const PanelModel& pm : in.serving) {
      if (pm.key == b.key) source = pm.source;
    }
    Matrix x;
    for (const std::uint32_t idx : b.plan_index) {
      const PlannedRequest& p = plan[idx];
      for (std::uint32_t r = 0; r < p.rows; ++r) {
        x.push_row(source->row(p.row_start + r));
      }
    }
    inputs.push_back(std::move(x));
  }
  std::vector<std::shared_ptr<const core::TrustedHmd>> detectors;
  for (const Batch& b : batches) detectors.push_back(registry.get(b.key));
  const auto score_batches = [&] {
    api::ScoreResult result;
    const auto t0 = Clock::now();
    ScopedSpan span("api.score.direct_batches", 0, batches.size());
    for (std::size_t i = 0; i < batches.size(); ++i) {
      api::ScoreRequest request;
      request.x = &inputs[i];
      request.outputs = in.mask;
      request.accuracy = batches[i].tier;
      detectors[i]->score(request, result);
    }
    return ms_between(t0, Clock::now());
  };
  // Alternate the two and keep each one's fastest pass: both are pure
  // CPU work, so host noise only ever adds to them.
  double direct_ms = score_batches();
  for (int rep = 0; rep < 3; ++rep) {
    replay_ms = std::min(replay_ms, replay(false));
    direct_ms = std::min(direct_ms, score_batches());
  }
  const double batcher_self_us =
      n_replay > 0
          ? (replay_ms - direct_ms) * 1e3 / static_cast<double>(n_replay)
          : 0.0;
  add("serve.batcher.self_us_per_request", batcher_self_us, "us");
  const serve::BatcherStats& bs = session.batcher;
  const double n_batches =
      std::max(1.0, static_cast<double>(bs.batches));
  const double mean_batch =
      static_cast<double>(bs.rows) / n_batches;
  add("serve.batcher.mean_batch_rows", mean_batch, "rows");
  add("serve.batcher.flush_rows_cap",
      static_cast<double>(bs.flushed_rows_cap) / n_batches, "share");
  add("serve.batcher.flush_deadline",
      static_cast<double>(bs.flushed_deadline) / n_batches, "share");
  add("serve.batcher.flush_idle",
      static_cast<double>(bs.flushed_idle) / n_batches, "share");
  const serve::ServerStats& ss = session.server;
  add("serve.server.bytes_per_request",
      static_cast<double>(ss.bytes_in + ss.bytes_out) /
          std::max<double>(1.0, static_cast<double>(ss.requests_in)),
      "bytes");

  // api.score / core.engine per kind, at the mean coalesced batch size.
  const std::size_t batch_rows = std::max<std::size_t>(
      in.rows_per_request, static_cast<std::size_t>(std::llround(mean_batch)));
  std::map<std::string, double> score_rate;
  std::map<std::string, double> request_score_us;
  for (const PanelModel& pm : in.kinds) {
    auto detector = registry.get(pm.key);
    const Matrix x = rows_of(*pm.source, batch_rows);
    const Matrix one = rows_of(*pm.source, in.rows_per_request);
    api::ScoreResult result;
    for (const bool fast : {false, true}) {
      if (fast && pm.kind == "rf") continue;
      api::ScoreRequest request;
      request.x = &x;
      request.outputs = in.mask;
      request.accuracy = fast ? core::Accuracy::kFast : core::Accuracy::kExact;
      const std::string name = pm.kind + (fast ? "_fast" : "");
      score_rate[name] = rate_per_s("api.score", x.rows(), 100.0, [&] {
        detector->score(request, result);
      });
      api::ScoreRequest small = request;
      small.x = &one;
      request_score_us[name] =
          1e6 * static_cast<double>(one.rows()) /
          rate_per_s("api.score", one.rows(), 50.0,
                     [&] { detector->score(small, result); });
    }
    std::vector<core::EnsembleStats> stats;
    const core::StatsMask stats_mask = api::stats_mask_for(in.mask, mode);
    score_rate["engine." + pm.kind] =
        rate_per_s("core.engine.stats_batch", x.rows(), 100.0, [&] {
          detector->engine().stats_batch(x, nullptr, stats, stats_mask);
        });
    if (pm.kind == "rf") {
      std::unique_ptr<core::TrustedHmd> arena;
      {
        const JitPolicyScope off(hmd::jit::Policy::kOff);
        arena = std::make_unique<core::TrustedHmd>(
            core::load_model(pm.path, in.pool_width));
      }
      score_rate["engine.rf_arena"] =
          rate_per_s("core.engine.stats_batch", x.rows(), 100.0, [&] {
            arena->engine().stats_batch(x, nullptr, stats, stats_mask);
          });
    }
  }
  add("api.score.rows_per_s.rf", score_rate["rf"], "rows/s");
  add("api.score.rows_per_s.lr", score_rate["lr"], "rows/s");
  add("api.score.rows_per_s.lr_fast", score_rate["lr_fast"], "rows/s");
  add("api.score.rows_per_s.svm", score_rate["svm"], "rows/s");
  add("api.score.rows_per_s.svm_fast", score_rate["svm_fast"], "rows/s");
  add("core.engine.rows_per_s.rf", score_rate["engine.rf"], "rows/s");
  add("core.engine.rows_per_s.rf_arena", score_rate["engine.rf_arena"],
      "rows/s");
  add("core.engine.rows_per_s.lr", score_rate["engine.lr"], "rows/s");
  add("core.engine.rows_per_s.svm", score_rate["engine.svm"], "rows/s");

  // serve.loop residual: open-loop client latency minus the layer times
  // one request crosses (wire both ways, batcher, score at request size).
  double score_us = 0.0;
  {
    std::size_t n = 0;
    for (const PlannedRequest& p : plan) {
      std::string kind;
      for (const PanelModel& pm : in.serving) {
        if (pm.key == in.plan_keys[p.model]) kind = pm.kind;
      }
      const bool fast = p.tier == core::Accuracy::kFast && kind != "rf";
      const std::string name = kind + (fast ? "_fast" : "");
      score_us += request_score_us[name] *
                  (static_cast<double>(p.rows) /
                   static_cast<double>(in.rows_per_request));
      ++n;
    }
    score_us /= std::max<double>(1.0, static_cast<double>(n));
  }
  const double open_p50 = percentile(session.open.latency_us, 0.5);
  add("serve.loop.residual_us",
      open_p50 - request_encode_us - result_encode_us - result_decode_us -
          std::max(0.0, batcher_self_us) - score_us,
      "us");
  add("serve.client.lateness_p99_us",
      percentile(session.open.lateness_us, 0.99), "us");
  add("serve.client.latency_p50_us", open_p50, "us");
  add("serve.client.latency_p99_us", windowed_p99(session.open.latency_us),
      "us");
  add("serve.client.rows_per_s", median(session.closed_rates), "rows/s");

  // api.registry: a resident hit and a filter-rejected miss.
  {
    constexpr std::uint64_t kGets = 100000;
    std::vector<double> hit_ns, miss_ns;
    std::vector<std::string> unknown;
    for (int i = 0; i < 64; ++i) {
      unknown.push_back("unregistered-" + std::to_string(i));
    }
    registry.get(first.key);
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = Clock::now();
      {
        ScopedSpan span("api.registry.get_hit", 0, kGets);
        for (std::uint64_t i = 0; i < kGets; ++i) registry.get(first.key);
      }
      hit_ns.push_back(us_between(t0, Clock::now()) * 1e3 / kGets);
      t0 = Clock::now();
      std::size_t found = 0;
      {
        ScopedSpan span("fleet.filter.miss", 0, kGets);
        for (std::uint64_t i = 0; i < kGets; ++i) {
          found += registry.try_get(unknown[i & 63]) != nullptr ? 1 : 0;
        }
      }
      miss_ns.push_back(us_between(t0, Clock::now()) * 1e3 / kGets);
      if (found != 0) throw std::runtime_error("an unknown key was found");
    }
    add("api.registry.get_hit_ns", median(hit_ns), "ns");
    add("fleet.filter.miss_ns", median(miss_ns), "ns");
  }

  // Cold-start split per served shape, summed over shapes. The registry
  // cold get + first batch is timed separately on a fresh entry so the
  // split can be reconciled with it.
  double map_ms = 0, verify_ms = 0, parse_ms = 0, compile_ms = 0,
         first_ms = 0, cold_get_ms = 0, compile_jit_ms = 0;
  std::size_t code_bytes = 0;
  for (const PanelModel& pm : in.serving) {
    std::vector<double> m, v, l, c, f, g;
    std::string backend;
    for (int rep = 0; rep < 5; ++rep) {
      auto t0 = Clock::now();
      std::optional<hmd::io::ArtifactBuffer> buffer;
      {
        ScopedSpan span("core.artifact.map");
        buffer.emplace(hmd::io::ArtifactBuffer::map_or_read(pm.path));
      }
      m.push_back(ms_between(t0, Clock::now()));
      const core::ArtifactInfo info = core::inspect_model(pm.path);
      t0 = Clock::now();
      {
        ScopedSpan span("core.artifact.verify");
        for (const core::ArtifactSectionInfo& section : info.sections) {
          const std::uint64_t h = hmd::io::xxhash64(
              buffer->data() + section.offset, section.size);
          if (info.section_checksums && h != section.checksum) {
            throw std::runtime_error("section checksum mismatch");
          }
        }
      }
      v.push_back(ms_between(t0, Clock::now()));
      buffer.reset();
      std::unique_ptr<core::TrustedHmd> off;
      t0 = Clock::now();
      {
        const JitPolicyScope no_jit(hmd::jit::Policy::kOff);
        ScopedSpan span("core.artifact.load_no_jit");
        off = std::make_unique<core::TrustedHmd>(
            core::load_model(pm.path, in.pool_width));
      }
      l.push_back(ms_between(t0, Clock::now()));
      if (pm.kind == "rf") {
        t0 = Clock::now();
        std::unique_ptr<hmd::jit::ForestProgram> program;
        {
          ScopedSpan span("jit.compile");
          program = hmd::jit::compile_forest(off->flat_forest());
        }
        c.push_back(ms_between(t0, Clock::now()));
        if (program != nullptr) {
          code_bytes = std::max(code_bytes, program->code_bytes());
        }
      } else {
        c.push_back(0.0);
      }
      const std::string fresh = pm.key + "#cold";
      registry.add(fresh, pm.path);
      t0 = Clock::now();
      std::shared_ptr<const core::TrustedHmd> detector;
      {
        ScopedSpan span("api.registry.cold_get", next_id());
        detector = registry.get(fresh);
      }
      g.push_back(ms_between(t0, Clock::now()));
      backend = detector->engine().kernel_backend();
      const Matrix batch = rows_of(*pm.source, kFirstBatchRows);
      api::ScoreRequest request;
      request.x = &batch;
      request.outputs = in.mask;
      api::ScoreResult result;
      t0 = Clock::now();
      {
        ScopedSpan span("core.artifact.first_batch");
        detector->score(request, result);
      }
      f.push_back(ms_between(t0, Clock::now()));
      detector.reset();
      registry.remove(fresh);
    }
    // Fastest of five for every part: each is CPU and page-cache work
    // that host noise only ever lengthens, and parse is a difference.
    const auto fastest = [](const std::vector<double>& x) {
      return *std::min_element(x.begin(), x.end());
    };
    map_ms += fastest(m);
    verify_ms += fastest(v);
    parse_ms += fastest(l) - fastest(m) - fastest(v);
    compile_ms += fastest(c);
    if (backend == "jit") compile_jit_ms += fastest(c);
    first_ms += fastest(f);
    cold_get_ms += fastest(g);
  }
  add("core.artifact.map_ms", map_ms, "ms");
  add("core.artifact.verify_ms", verify_ms, "ms");
  add("core.artifact.parse_ms", parse_ms, "ms");
  add("jit.compile_ms", compile_ms, "ms");
  add("core.artifact.first_batch_ms", first_ms, "ms");
  add("api.registry.cold_get_ms", cold_get_ms, "ms");
  add("api.registry.refresh_ms", in.refresh_ms, "ms");
  add("core.artifact.save_ms", in.save_ms, "ms");
  add("jit.code_mb", static_cast<double>(code_bytes) / (1024.0 * 1024.0),
      "MiB");
  const double split =
      map_ms + verify_ms + parse_ms + compile_jit_ms + first_ms;
  record.emplace_back("cold_split_ms", fmt(split));
  record.emplace_back("cold_get_plus_first_batch_ms",
                      fmt(cold_get_ms + first_ms));
  record.emplace_back("cold_split_over_cold_get",
                      fmt(split / std::max(1e-9, cold_get_ms + first_ms)));

  // simd: the dispatched entropy kernel.
  {
    constexpr std::size_t kElems = 4096;
    std::vector<double> p(kElems), h(kElems);
    for (std::size_t i = 0; i < kElems; ++i) {
      p[i] = (static_cast<double>(i) + 0.5) / static_cast<double>(kElems);
    }
    const hmd::simd::VmathKernels& vm = hmd::simd::kernels();
    add("simd.entropy_elems_per_s",
        rate_per_s("simd.binary_entropy_array", kElems, 100.0, [&] {
          vm.binary_entropy_array(p.data(), h.data(), kElems);
        }),
        "elems/s");
  }

  // fleet: the workload's own churn counts, or a small churn over byte
  // copies of the served artifacts under half their total bytes.
  double per_k = 0, evictions = 0, reloads = 0, resident_mb = 0;
  if (in.churn_requests > 0) {
    per_k = 1000.0 / static_cast<double>(in.churn_requests);
    evictions = static_cast<double>(in.churn_evictions);
    reloads = static_cast<double>(in.churn_reloads);
    resident_mb = in.churn_resident_mb;
  } else {
    std::vector<std::pair<std::string, const PanelModel*>> copies;
    std::size_t total = 0;
    for (const PanelModel& pm : in.serving) {
      for (int c = 0; c < 3; ++c) {
        const std::string path =
            in.dir + "/panel_" + pm.key + "_" + std::to_string(c) + ".hmdf";
        fs::copy_file(pm.path, path, fs::copy_options::overwrite_existing);
        total += static_cast<std::size_t>(fs::file_size(path));
        copies.emplace_back(path, &pm);
      }
    }
    hmd::fleet::FleetOptions fleet;
    fleet.residency_budget_bytes = total / 2;
    api::DetectorRegistry churn(in.pool_width, core::LoadMode::kAuto, fleet);
    for (std::size_t i = 0; i < copies.size(); ++i) {
      churn.add("copy-" + std::to_string(i), copies[i].first);
    }
    const std::size_t n = 4 * copies.size();
    api::ScoreResult result;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i % copies.size();
      const Matrix x = rows_of(*copies[k].second->source, kChurnRows);
      ScopedSpan span("fleet.churn_request", next_id());
      auto detector = churn.get("copy-" + std::to_string(k));
      api::ScoreRequest request;
      request.x = &x;
      request.outputs = api::kDetectionOutputs;
      detector->score(request, result);
    }
    const hmd::fleet::FleetStats fs_stats = churn.fleet_stats();
    std::uint64_t loads = 0;
    for (const api::ModelHealth& h : churn.health()) loads += h.loads_ok;
    per_k = 1000.0 / static_cast<double>(n);
    evictions = static_cast<double>(fs_stats.residency.evictions);
    // Every copy loads once on its first request; the rest are reloads.
    reloads = static_cast<double>(
        loads - std::min<std::uint64_t>(loads, copies.size()));
    resident_mb = static_cast<double>(fs_stats.residency.resident_bytes) /
                  (1024.0 * 1024.0);
  }
  add("fleet.resident_mb", resident_mb, "MiB");
  add("fleet.evictions", evictions * per_k, "1/kreq");
  add("fleet.reloads", reloads * per_k, "1/kreq");

  // Set-up layers (timed while the traced run set itself up).
  add("datasets.generate_ms", setup.generate_ms, "ms");
  auto fit = [&](const char* kind) {
    const auto it = setup.fit_s.find(kind);
    return it == setup.fit_s.end() ? 0.0 : it->second;
  };
  add("ml.fit_s.rf", fit("rf"), "s");
  add("ml.fit_s.lr", fit("lr"), "s");
  add("ml.fit_s.svm", fit("svm"), "s");
  return out;
}

// ---------------------------------------------------------------------------
// Serve workloads.

struct ServeSpec {
  std::vector<std::string> shapes;
  std::vector<bool> retrain;
  api::OutputMask mask;
  std::size_t rows_per_request;
  double open_rps;
  std::vector<std::size_t> cold_rotation;  ///< key indices
  std::vector<std::size_t> swap_rotation;
  bool paper_claim;
};

/// The end-to-end metrics (CPU-time based; see Stopwatch), plus their
/// wall-clock counterparts in the run record.
void fill_e2e(RunResult& out, const Samples& setup, double rss,
              double rows_per_cpu_s, double cpu_us_per_request,
              const Samples& cold, const Samples& swap, double rows_per_s,
              const std::vector<double>& latency_us) {
  out.end_to_end = {
      {"setup_s", median(setup.cpu_ms) / 1e3, "s"},
      {"rss_mb", rss, "MiB"},
      {"rows_per_cpu_s", rows_per_cpu_s, "rows/s"},
      {"cpu_us_per_request", cpu_us_per_request, "us"},
      {"cold_start_ms", median(cold.cpu_ms), "ms"},
      {"swap_ms", median(swap.cpu_ms), "ms"},
  };
  out.record.emplace_back("setup_wall_s", fmt(median(setup.wall_ms) / 1e3));
  out.record.emplace_back("rows_per_s_wall", fmt(rows_per_s));
  out.record.emplace_back("latency_p50_us_wall",
                          fmt(percentile(latency_us, 0.5)));
  out.record.emplace_back("latency_p99_us_wall", fmt(windowed_p99(latency_us)));
  out.record.emplace_back("latency_samples", std::to_string(latency_us.size()));
  out.record.emplace_back("cold_start_ms_wall", fmt(median(cold.wall_ms)));
  out.record.emplace_back("swap_ms_wall", fmt(median(swap.wall_ms)));
}

void record_publish(RunResult& out, const Samples& save,
                    const Samples& refresh) {
  out.record.emplace_back("save_ms_cpu", fmt(median(save.cpu_ms)));
  out.record.emplace_back("save_ms_wall", fmt(median(save.wall_ms)));
  out.record.emplace_back("refresh_ms_cpu", fmt(median(refresh.cpu_ms)));
  out.record.emplace_back("refresh_ms_wall", fmt(median(refresh.wall_ms)));
}

/// Remember the kernel backend of every key that is loaded right now.
void note_backends(api::DetectorRegistry& registry,
                   const std::vector<Key>& keys,
                   std::map<std::string, std::string>& backends) {
  for (const Key& key : keys) {
    const api::ModelHealth h = registry.health(key.name);
    if (!h.kernel_backend.empty()) backends[key.name] = h.kernel_backend;
  }
}

void record_backends(RunResult& out,
                     const std::map<std::string, std::string>& backends) {
  std::string json = "{";
  for (const auto& [key, backend] : backends) {
    if (json.size() > 1) json += ", ";
    json += quote(key) + ": " + quote(backend);
  }
  out.record.emplace_back("kernel_backend", json + "}");
}

RunResult run_serve(const Args& args, const ServeSpec& spec) {
  RunResult out;
  Counters counters;
  RssSampler rss;
  const int pool_width = pool_lanes();
  const std::string stage = args.work_dir + "/stage";
  fs::create_directories(stage);

  Setup setup;
  std::vector<Key> keys;
  std::unique_ptr<api::DetectorRegistry> registry;
  std::unique_ptr<ServerHandle> handle;
  Samples setup_time;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    handle.reset();
    registry.reset();
    setup = Setup{};
    keys.clear();
    const Stopwatch watch;
    build_models(setup, args, spec.shapes, spec.retrain, stage, false);
    registry = std::make_unique<api::DetectorRegistry>(pool_width);
    for (std::size_t i = 0; i < setup.models.size(); ++i) {
      Key key{setup.models[i].shape,
              args.work_dir + "/" + setup.models[i].shape + ".hmdf", i, 0};
      fs::copy_file(setup.models[i].staged[0], key.path,
                    fs::copy_options::overwrite_existing);
      registry->add(key.name, key.path);
      keys.push_back(key);
    }
    handle = std::make_unique<ServerHandle>(*registry, serve::ServerOptions{});
    setup_time.add(watch);
  }
  build_oracles(setup);

  std::vector<PlannedRequest> plan;
  {
    // Linear models alternate exact and fast; the RF is always exact.
    const std::size_t n =
        setup.models.front().source->rows() / spec.rows_per_request;
    std::size_t linear_turn = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t k = i % keys.size();
      const Model& model = setup.models[keys[k].model];
      core::Accuracy tier = core::Accuracy::kExact;
      if (model.kind != "rf") {
        tier = (linear_turn++ / (keys.size() - 1)) % 2 == 0
                   ? core::Accuracy::kExact
                   : core::Accuracy::kFast;
      }
      plan.push_back(plan_request(keys[k], model, static_cast<std::uint32_t>(k),
                                  tier, i * spec.rows_per_request,
                                  spec.rows_per_request, spec.mask));
    }
  }

  // Measured phases, in rounds so that every metric samples the whole
  // run: cold starts, a closed-loop slice, an open-loop slice, swaps.
  rss.sample();
  Samples cold, swap, save, refresh;
  Session session;
  const Verifier verify = make_verifier(keys, setup.models, spec.mask,
                                        spec.paper_claim ? &session : nullptr);
  api::ScoreResult result;
  for (int round = 0; round < kServeRounds; ++round) {
    {
      ScopedSpan span("phase.cold_start");
      for (const std::size_t k : spec.cold_rotation) {
        const Model& model = setup.models[keys[k].model];
        const Matrix batch = rows_of(*model.source, kFirstBatchRows);
        cold_start(*registry, keys[k], model, spec.mask, batch, counters, cold);
        rss.sample();
      }
    }
    run_session(session, *handle, plan, verify,
                kClosedShare * args.seconds / kServeRounds,
                kOpenShare * args.seconds / kServeRounds, spec.open_rps, rss,
                counters,
                args.trace && round == 0);
    ScopedSpan span("phase.swap");
    BlockingConnection conn(handle->server().port());
    for (const std::size_t k : spec.swap_rotation) {
      Key& key = keys[k];
      const Model& model = setup.models[key.model];
      // A request over unknown rows, where versions disagree most.
      const PlannedRequest* probe = nullptr;
      for (const PlannedRequest& p : plan) {
        if (p.model == k && p.tier == core::Accuracy::kExact &&
            p.row_start >= model.known_rows) {
          probe = &p;
          break;
        }
      }
      ++counters.attempted;
      const Stopwatch watch;
      std::string why;
      {
        ScopedSpan swap_span("publish.swap", next_id());
        publish(*registry, key, model, save, refresh);
        why = conn.call(*probe, result);
        if (why.empty()) {
          why = check_rows(result, 0, spec.mask, probe->tier,
                           *model.oracle[key.current], probe->row_start,
                           probe->rows);
        }
      }
      swap.add(watch);
      if (!why.empty()) counters.fail("swap " + key.name + ": " + why);
      rss.sample();
    }
  }
  std::map<std::string, std::string> backends;
  note_backends(*registry, keys, backends);
  record_backends(out, backends);
  handle->stop();
  if (!handle->error().empty()) counters.fail("server: " + handle->error());
  session.server = handle->server().stats();
  session.batcher = handle->server().batcher_stats();

  fill_e2e(out, setup_time, rss.max_mb(),
           static_cast<double>(session.closed_rows) /
               std::max(1e-9, session.server_cpu_s),
           session.open_server_cpu_s * 1e6 /
               std::max(1.0, static_cast<double>(session.open.attempted)),
           cold, swap, median(session.closed_rates), session.open.latency_us);

  if (spec.paper_claim) check_claim(session.claim, out, counters);
  out.record.emplace_back("closed_requests",
                          std::to_string(session.closed.attempted));
  out.record.emplace_back(
      "mean_batch_rows",
      fmt(static_cast<double>(session.batcher.rows) /
          std::max<double>(1.0, static_cast<double>(session.batcher.batches))));
  out.record.emplace_back("requests_exact",
                          std::to_string(session.server.requests_exact));
  out.record.emplace_back("requests_fast",
                          std::to_string(session.server.requests_fast));
  out.record.emplace_back(
      "responses_reordered",
      std::to_string(session.closed.reordered + session.open.reordered));
  out.record.emplace_back("open_requests",
                          std::to_string(session.open.attempted));
  out.record.emplace_back("open_lateness_p99_us",
                          fmt(percentile(session.open.lateness_us, 0.99)));
  record_publish(out, save, refresh);

  if (args.trace) {
    // Kinds the workload does not serve are fitted here, on its own
    // data, so every per-layer metric has a value on every workload.
    std::vector<PanelModel> kinds;
    Setup extra_setup;
    for (const std::string kind : {"rf", "lr", "svm"}) {
      bool found = false;
      for (const Key& key : keys) {
        const Model& model = setup.models[key.model];
        if (model.kind == kind) {
          kinds.push_back(PanelModel{kind, key.name, key.path, model.source});
          found = true;
          break;
        }
      }
      if (found) continue;
      const Model& base = setup.models.front();
      const bool dvfs = base.shape.rfind("dvfs", 0) == 0;
      double seconds = 0.0;
      std::unique_ptr<core::TrustedHmd> fitted;
      {
        const JitPolicyScope off(hmd::jit::Policy::kOff);
        fitted = fit_model(kind, dvfs ? setup.dvfs.train : setup.hpc.train,
                           model_seed(args.seed, 0), &seconds);
      }
      setup.fit_s[kind] = seconds;
      const std::string key = (dvfs ? "dvfs_" : "hpc_") + std::string(kind);
      const std::string path = stage + "/" + key + ".hmdf";
      core::save_model(*fitted, path);
      registry->add(key, path);
      kinds.push_back(PanelModel{kind, key, path, base.source});
    }
    PanelInput panel;
    panel.registry = registry.get();
    for (const Key& key : keys) {
      const Model& model = setup.models[key.model];
      panel.serving.push_back(
          PanelModel{model.kind, key.name, key.path, model.source});
      panel.plan_keys.push_back(key.name);
    }
    panel.kinds = kinds;
    panel.mask = spec.mask;
    panel.rows_per_request = spec.rows_per_request;
    panel.session = &session;
    panel.plan = &plan;
    panel.pool_width = pool_width;
    panel.dir = stage;
    panel.save_ms = median(save.cpu_ms);
    panel.refresh_ms = median(refresh.cpu_ms);
    out.per_layer = layer_panel(panel, setup, out.record);
  }
  handle.reset();
  registry.reset();

  out.attempted = counters.attempted;
  out.failed = counters.failed;
  out.first_error = counters.first_error;
  return out;
}

// ---------------------------------------------------------------------------
// publish-churn.

/// One block of the churn sequence. Each key's count is its Zipf share of
/// the block, rounded on the cumulative share so the counts sum to the
/// block; only the order is drawn from the seed. With a plain draw the
/// number of deep-forest reloads in a run, and with it the churn cost,
/// would vary with the seed by about a fifth (IQR / median, see the
/// README). Entry -1 is a probe.
std::vector<int> churn_block(std::size_t n_keys, hmd::Rng& rng) {
  double total = 0.0;
  for (std::size_t k = 0; k < n_keys; ++k) {
    total += std::pow(static_cast<double>(k + 1), -kZipfExponent);
  }
  std::vector<int> block;
  double share = 0.0;
  for (std::size_t k = 0; k < n_keys; ++k) {
    share += std::pow(static_cast<double>(k + 1), -kZipfExponent) / total;
    const auto upto = static_cast<std::size_t>(
        std::lround(share * static_cast<double>(kChurnKeyRequests)));
    block.insert(block.end(), upto - block.size(), static_cast<int>(k));
  }
  block.insert(block.end(), kChurnProbes, -1);
  for (std::size_t i = block.size() - 1; i > 0; --i) {
    std::swap(block[i], block[rng.uniform_index(i + 1)]);
  }
  return block;
}

RunResult run_churn(const Args& args) {
  RunResult out;
  Counters counters;
  RssSampler rss;
  const int pool_width = pool_lanes();
  const std::string stage = args.work_dir + "/stage";
  const std::string fleet_dir = args.work_dir + "/fleet";
  fs::create_directories(stage);
  fs::create_directories(fleet_dir);
  const std::vector<std::string> shapes = {"dvfs_rf", "hpc_lr", "hpc_svm",
                                           "hpc_rf"};
  // Zipf rank order: the small shapes are hot, the deep-forest copies
  // form the tail.
  std::vector<std::size_t> fleet_models = {0, 1, 2};
  for (int c = 0; c < kDeepForestCopies; ++c) fleet_models.push_back(3);

  Setup setup;
  std::vector<Key> keys;
  std::unique_ptr<api::DetectorRegistry> registry;
  Samples setup_time;
  std::size_t budget = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    registry.reset();
    setup = Setup{};
    keys.clear();
    const Stopwatch watch;
    build_models(setup, args, shapes, {true, true, true, true}, stage, true);
    std::size_t small = 0;
    for (std::size_t m = 0; m < 3; ++m) {
      small += setup.models[m].version[0]->engine().memory_bytes();
    }
    budget = small + setup.models[3].version[0]->engine().memory_bytes() / 2;
    hmd::fleet::FleetOptions fleet;
    fleet.residency_budget_bytes = budget;
    registry = std::make_unique<api::DetectorRegistry>(
        pool_width, core::LoadMode::kAuto, fleet);
    std::map<std::size_t, int> copy;
    for (const std::size_t m : fleet_models) {
      const std::string name =
          setup.models[m].shape + "-" + std::to_string(copy[m]++);
      Key key{name, fleet_dir + "/" + name + ".hmdf", m, 0};
      fs::copy_file(setup.models[m].staged[0], key.path,
                    fs::copy_options::overwrite_existing);
      registry->add(key.name, key.path);
      keys.push_back(key);
    }
    setup_time.add(watch);
  }
  build_oracles(setup);

  std::vector<Matrix> batches;
  for (const Model& m : setup.models) {
    batches.push_back(rows_of(*m.source, kFirstBatchRows));
  }
  // The paper's claim is checked on the DVFS forest's answers over the
  // whole DVFS known and unknown splits, once per round.
  std::size_t dvfs_known = 0;
  const Matrix dvfs_all = concat_splits(setup.dvfs, 4, 0, &dvfs_known);
  const Oracle dvfs_oracle[2] = {Oracle(*setup.models[0].version[0], dvfs_all),
                                 Oracle(*setup.models[0].version[1], dvfs_all)};
  Claim claim;
  std::vector<std::string> probes;
  for (int i = 0; i < 16; ++i) {
    probes.push_back("retired-model-" + std::to_string(i));
  }

  const int rounds =
      std::max(1, static_cast<int>(std::lround(args.seconds / 3.5)));
  hmd::Rng rng(args.seed * 2654435761ull + 17);
  Samples cold, swap, save, refresh;
  std::vector<double> latency_us;
  std::uint64_t churn_rows = 0, churn_requests = 0, evictions = 0, reloads = 0;
  std::uint64_t probes_rejected = 0, probes_sent = 0;
  double churn_seconds = 0.0, churn_cpu_s = 0.0, resident_mb = 0.0;
  std::map<std::string, std::string> backends;
  api::ScoreResult result;
  rss.sample();
  for (int round = 0; round < rounds; ++round) {
    {
      ScopedSpan span("phase.cold_start");
      for (const Key& key : keys) {
        cold_start(*registry, key, setup.models[key.model],
                   api::kDetectionOutputs, batches[key.model], counters, cold);
        note_backends(*registry, {key}, backends);
        rss.sample();
      }
    }
    {
      ScopedSpan span("phase.swap");
      for (Key& key : keys) {
        const Model& model = setup.models[key.model];
        ++counters.attempted;
        const Stopwatch watch;
        std::string why;
        {
          ScopedSpan swap_span("publish.swap", next_id());
          publish(*registry, key, model, save, refresh);
          why = score_first_batch(*registry, key, model, api::kDetectionOutputs,
                                  batches[key.model], result);
        }
        swap.add(watch);
        if (!why.empty()) counters.fail("swap " + key.name + ": " + why);
        rss.sample();
      }
    }
    {
      const Key& key = keys[0];  // the DVFS forest
      ++counters.attempted;
      api::ScoreRequest request;
      request.x = &dvfs_all;
      request.outputs = api::kDetectionOutputs;
      registry->get(key.name)->score(request, result);
      const std::string why =
          check_rows(result, 0, api::kDetectionOutputs, core::Accuracy::kExact,
                     dvfs_oracle[key.current], 0, dvfs_all.rows());
      if (!why.empty()) counters.fail("claim rows: " + why);
      claim.add(result, 0, dvfs_all.rows(), dvfs_known);
    }
    {
      ScopedSpan span("phase.churn");
      const std::vector<int> block = churn_block(keys.size(), rng);
      const auto before = registry->fleet_stats().residency.evictions;
      std::uint64_t loads_before = 0;
      for (const api::ModelHealth& h : registry->health()) {
        loads_before += h.loads_ok;
      }
      const Stopwatch watch;
      std::size_t cursor = 0;
      for (const int k : block) {
        ++counters.attempted;
        ++churn_requests;
        const auto r0 = Clock::now();
        if (k < 0) {
          ++probes_sent;
          ScopedSpan probe_span("fleet.probe", next_id());
          if (registry->try_get(probes[cursor++ % probes.size()]) == nullptr) {
            ++probes_rejected;
          } else {
            counters.fail("an unknown key was served");
          }
        } else {
          const Key& key = keys[static_cast<std::size_t>(k)];
          const Model& model = setup.models[key.model];
          const std::size_t row = (cursor++ * kChurnRows) %
                                  (kFirstBatchRows - kChurnRows + 1);
          ScopedSpan request_span("fleet.churn_request", next_id());
          std::shared_ptr<const core::TrustedHmd> detector;
          {
            ScopedSpan get_span("api.registry.get");
            detector = registry->get(key.name);
          }
          Matrix x;
          for (std::size_t r = 0; r < kChurnRows; ++r) {
            x.push_row(batches[key.model].row(row + r));
          }
          api::ScoreRequest request;
          request.x = &x;
          request.outputs = api::kDetectionOutputs;
          {
            ScopedSpan score_span("api.score", 0, kChurnRows);
            detector->score(request, result);
          }
          const std::string why =
              check_rows(result, 0, api::kDetectionOutputs,
                         core::Accuracy::kExact, *model.oracle[key.current],
                         row, kChurnRows);
          if (!why.empty()) counters.fail("churn " + key.name + ": " + why);
          churn_rows += kChurnRows;
        }
        const auto r1 = Clock::now();
        latency_us.push_back(us_between(r0, r1));
        rss.maybe_sample(r1);
      }
      churn_seconds += watch.wall_ms() / 1e3;
      churn_cpu_s += watch.cpu_ms() / 1e3;
      const hmd::fleet::FleetStats stats = registry->fleet_stats();
      evictions += stats.residency.evictions - before;
      std::uint64_t loads_after = 0;
      for (const api::ModelHealth& h : registry->health()) {
        loads_after += h.loads_ok;
      }
      reloads += loads_after - loads_before;
      resident_mb = static_cast<double>(stats.residency.resident_bytes) /
                    (1024.0 * 1024.0);
      rss.sample();
    }
  }
  ++counters.attempted;
  if (evictions == 0 || reloads == 0) {
    counters.fail("churn caused no evictions or no reloads");
  }
  check_claim(claim, out, counters);
  fill_e2e(out, setup_time, rss.max_mb(),
           static_cast<double>(churn_rows) / std::max(1e-9, churn_cpu_s),
           churn_cpu_s * 1e6 /
               std::max(1.0, static_cast<double>(churn_requests)),
           cold, swap,
           static_cast<double>(churn_rows) / std::max(1e-9, churn_seconds),
           latency_us);
  record_backends(out, backends);
  out.record.emplace_back("rounds", std::to_string(rounds));
  out.record.emplace_back("residency_budget_bytes", std::to_string(budget));
  out.record.emplace_back("churn_requests", std::to_string(churn_requests));
  out.record.emplace_back("churn_evictions", std::to_string(evictions));
  out.record.emplace_back("churn_reloads", std::to_string(reloads));
  out.record.emplace_back("churn_requests_per_s",
                          fmt(static_cast<double>(churn_requests) /
                              std::max(1e-9, churn_seconds)));
  out.record.emplace_back("probes_sent", std::to_string(probes_sent));
  out.record.emplace_back("probes_rejected", std::to_string(probes_rejected));
  record_publish(out, save, refresh);

  if (args.trace) {
    // The serve.* layers need a server: a short session over one key per
    // shape in its own unbounded registry.
    api::DetectorRegistry panel_registry(pool_width);
    std::vector<Key> panel_keys;
    PanelInput panel;
    for (std::size_t m = 0; m < setup.models.size(); ++m) {
      const Model& model = setup.models[m];
      panel_keys.push_back(Key{model.shape, model.staged[0], m, 0});
      panel_registry.add(model.shape, model.staged[0]);
      panel_registry.get(model.shape);
      panel.serving.push_back(PanelModel{model.kind, model.shape,
                                         model.staged[0], model.source});
      panel.plan_keys.push_back(model.shape);
      if (model.shape != "dvfs_rf") panel.kinds.push_back(panel.serving.back());
    }
    std::vector<PlannedRequest> plan;
    for (std::size_t i = 0; i < 64 * panel_keys.size(); ++i) {
      const std::size_t k = i % panel_keys.size();
      const std::size_t row =
          (i / panel_keys.size()) * kChurnRows % kFirstBatchRows;
      plan.push_back(plan_request(panel_keys[k], setup.models[k],
                                  static_cast<std::uint32_t>(k),
                                  core::Accuracy::kExact, row, kChurnRows,
                                  api::kDetectionOutputs));
    }
    Session session;
    Counters panel_counters;
    {
      ServerHandle handle(panel_registry, serve::ServerOptions{});
      run_session(session, handle, plan,
                  make_verifier(panel_keys, setup.models,
                                api::kDetectionOutputs, nullptr),
                  0.5, 0.5, 2000.0, rss, panel_counters, true);
      handle.stop();
      session.server = handle.server().stats();
      session.batcher = handle.server().batcher_stats();
    }
    if (panel_counters.failed > 0) {
      counters.fail("traced serve session: " + panel_counters.first_error);
    }
    panel.registry = &panel_registry;
    panel.mask = api::kDetectionOutputs;
    panel.rows_per_request = kChurnRows;
    panel.session = &session;
    panel.plan = &plan;
    panel.pool_width = pool_width;
    panel.dir = stage;
    panel.churn_requests = churn_requests;
    panel.churn_evictions = evictions;
    panel.churn_reloads = reloads;
    panel.churn_resident_mb = resident_mb;
    panel.save_ms = median(save.cpu_ms);
    panel.refresh_ms = median(refresh.cpu_ms);
    out.per_layer = layer_panel(panel, setup, out.record);
  }
  registry.reset();
  out.attempted = counters.attempted;
  out.failed = counters.failed;
  out.first_error = counters.first_error;
  return out;
}

}  // namespace

RunResult run_workload(const Args& args) {
  if (args.trace) tracer().enable(Clock::now());
  const hmd::jit::Policy serving_policy = hmd::jit::policy();
  RunResult out;
  if (args.workload == "serve-dvfs") {
    ServeSpec spec;
    spec.shapes = {"dvfs_rf"};
    spec.retrain = {true};
    spec.mask = api::kDetectionOutputs;
    spec.rows_per_request = 4;
    spec.open_rps = kDvfsOpenRps;
    // Both are sub-millisecond here: many samples per round.
    spec.cold_rotation.assign(40, 0);
    spec.swap_rotation.assign(40, 0);
    spec.paper_claim = true;
    out = run_serve(args, spec);
  } else if (args.workload == "serve-hpc") {
    ServeSpec spec;
    spec.shapes = {"hpc_rf", "hpc_lr", "hpc_svm"};
    spec.retrain = {true, false, false};
    spec.mask = api::kEstimateOutputs;
    spec.rows_per_request = 64;
    spec.open_rps = kHpcOpenRps;
    // The deep forest is two thirds of the cold starts, so the median
    // sits inside its cluster rather than between two model shapes.
    spec.cold_rotation = {0, 1, 0, 2, 0, 0};
    spec.swap_rotation.assign(2, 0);
    spec.paper_claim = false;
    out = run_serve(args, spec);
  } else if (args.workload == "publish-churn") {
    out = run_churn(args);
  } else {
    throw std::invalid_argument("unknown workload: " + args.workload);
  }
  if (out.failed > 0) out.correct = false;

  out.record.emplace_back("cpu_model", quote(cpu_model()));
  out.record.emplace_back("nproc", std::to_string(nproc()));
  out.record.emplace_back("simd_level",
                          quote(hmd::simd::isa_name(hmd::simd::active_isa())));
  out.record.emplace_back("jit_policy", quote(policy_name(serving_policy)));
  out.record.emplace_back("jit_available",
                          hmd::jit::available() ? "true" : "false");
  out.record.emplace_back("detector_pool_lanes", std::to_string(pool_lanes()));
  out.record.emplace_back("fit_threads", std::to_string(nproc()));
  out.record.emplace_back("connections", std::to_string(std::min(4, nproc())));
  const auto n = [](std::uint64_t v) { return std::to_string(v); };
  out.record.emplace_back(
      "seeds", "{\"run\": " + n(args.seed) +
                   ", \"dvfs_data\": " + n(dvfs_data_seed(args.seed)) +
                   ", \"hpc_data\": " + n(hpc_data_seed(args.seed)) +
                   ", \"model_v0\": " + n(model_seed(args.seed, 0)) +
                   ", \"model_v1\": " + n(model_seed(args.seed, 1)) + "}");
  const Deviation& d = observed_deviation();
  out.record.emplace_back("max_exact_abs_dev", fmt(d.exact_abs));
  out.record.emplace_back("max_exact_ulps", std::to_string(d.exact_ulps));
  out.record.emplace_back("max_fast_abs_dev", fmt(d.fast_abs));
  out.record.emplace_back("max_fast_ulps", std::to_string(d.fast_ulps));
  if (args.trace) {
    out.record.emplace_back("spans", std::to_string(tracer().size()));
    out.record.emplace_back("spans_dropped",
                            std::to_string(tracer().dropped()));
  }
  return out;
}

}  // namespace pb
