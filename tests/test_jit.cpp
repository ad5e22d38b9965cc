// Unit and integration tests for the tree-to-native JIT backend
// (src/jit/): the executable CodeBuffer's W^X life cycle, the x86-64
// emitter's label/constant-pool fixups (asserted by executing a
// hand-emitted kernel), the three-state compile policy and its
// profitability heuristic, fallback-to-arena behaviour, tiering (arena at
// load, a background single-shape compile once a shape has scored
// FlatForestEngine::kJitPromoteRows rows, bit-identical results across
// the install, cancel on destruction, failpoint-declined compiles) and —
// for the TSan job — concurrent first-get() compiles through the
// registry and scoring threads racing a background install.
//
// Everything here is a no-op-but-green on targets where the JIT is
// compiled out (-DHMD_NO_JIT / non-x86-64): the availability-dependent
// assertions are gated on jit::available(), and the behavioural ones
// (fallback, policy bookkeeping, concurrency) hold either way.

#include <gtest/gtest.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "api/detector_registry.h"
#include "common/failpoint.h"
#include "core/flat_forest.h"
#include "core/hmd.h"
#include "core/model_artifact.h"
#include "jit/code_buffer.h"
#include "jit/jit.h"
#include "jit/x64_emitter.h"
#include "test_support.h"

namespace {

using namespace hmd;

struct PolicyGuard {
  jit::Policy saved = jit::policy();
  ~PolicyGuard() { jit::set_policy(saved); }
};

/// "m<k>" built without operator+(const char*, string&&) — GCC 12's
/// -Wrestrict false-positives on that overload when it inlines into the
/// thread lambdas below, and CI compiles with -Werror.
std::string model_key(int k) {
  std::string key = "m";
  key += std::to_string(k);
  return key;
}

core::HmdConfig rf_config(int members) {
  core::HmdConfig config;
  config.model = core::ModelKind::kRandomForest;
  config.n_members = members;
  config.seed = 42;
  return config;
}

/// `rows` rows cycled from `src`: one batch that carries a shape's row
/// count wherever a test needs it.
Matrix tiled_rows(const Matrix& src, std::size_t rows) {
  Matrix out(rows, src.cols());
  for (std::size_t r = 0; r < rows; ++r) {
    std::memcpy(out.row_ptr(r), src.row_ptr(r % src.rows()),
                src.cols() * sizeof(double));
  }
  return out;
}

/// Score `rows` rows (cycled from `src`, default the HPC test split)
/// under `mask` through the engine's batch entry point.
void score_rows(const core::TrustedHmd& hmd, std::size_t rows,
                core::StatsMask mask,
                const Matrix& src = test::small_hpc().test.X) {
  std::vector<core::EnsembleStats> stats;
  hmd.engine().stats_batch(tiled_rows(src, rows), nullptr, stats, mask);
}

/// Wait until every compile queued before this call has finished: the
/// worker runs jobs one at a time in FIFO order. Bounded at 60 s.
bool drain_compile_worker() {
  auto done = std::make_shared<std::promise<void>>();
  std::future<void> finished = done->get_future();
  jit::submit_compile([done] { done->set_value(); });
  return finished.wait_for(std::chrono::seconds(60)) ==
         std::future_status::ready;
}

/// Disarms every failpoint at scope exit, so a failed assertion cannot
/// leak an armed site into the next test of the same process.
struct FailpointGuard {
  ~FailpointGuard() { fail::disarm_all(); }
};

/// A deep (JIT-eligible under kAuto) HPC forest saved to a per-test
/// directory, removed again at scope exit.
struct DeepArtifact {
  explicit DeepArtifact(int members) {
    // The pid keeps the discovered entry and the JitSuite.All aggregate
    // apart when ctest runs both at once.
    dir = "jit_tier_tmp_";
    dir += ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir += "_";
    dir += std::to_string(::getpid());
    std::filesystem::create_directories(dir);
    path = (dir / "deep.hmdf").string();
    core::TrustedHmd trained(rf_config(members));
    trained.fit(test::small_hpc().train);
    core::save_model(trained, path);
  }
  ~DeepArtifact() { std::filesystem::remove_all(dir); }

  /// Load under `policy`, restoring the previous policy afterwards.
  core::TrustedHmd load(jit::Policy policy, int threads = 1) const {
    const PolicyGuard guard;
    jit::set_policy(policy);
    return core::load_model(path, threads);
  }

  std::filesystem::path dir;
  std::string path;
};

/// Bitwise equality of the estimate columns two detectors produce.
bool same_estimates(const std::vector<core::Estimate>& a,
                    const std::vector<core::Estimate>& b) {
  if (a.size() != b.size()) return false;
  const auto same = [](double u, double v) {
    return std::memcmp(&u, &v, sizeof(double)) == 0;
  };
  for (std::size_t r = 0; r < a.size(); ++r) {
    if (a[r].votes_malware != b[r].votes_malware ||
        !same(a[r].soft_entropy, b[r].soft_entropy) ||
        !same(a[r].expected_entropy, b[r].expected_entropy) ||
        !same(a[r].mutual_information, b[r].mutual_information) ||
        !same(a[r].score, b[r].score)) {
      return false;
    }
  }
  return true;
}

constexpr std::size_t kPromote = core::FlatForestEngine::kJitPromoteRows;

#if HMD_JIT_SUPPORTED

TEST(JitCodeBuffer, EmitProtectExecute) {
  jit::CodeBuffer code;
  code.put8(0xC3);  // ret
  ASSERT_TRUE(code.ok());
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();  // returning at all is the assertion
}

TEST(JitCodeBuffer, GrowsPastInitialMappingAndStaysExecutable) {
  // Force several remap-and-copy growths (initial capacity is 64 KiB),
  // then prove the surviving bytes still execute end to end.
  jit::CodeBuffer code;
  constexpr std::size_t kNops = 300 * 1000;
  for (std::size_t i = 0; i < kNops; ++i) code.put8(0x90);  // nop sled
  code.put8(0xC3);                                          // ret
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(code.size(), kNops + 1);
  ASSERT_TRUE(code.protect());
  const auto fn = reinterpret_cast<void (*)()>(
      const_cast<void*>(code.entry(0)));
  fn();
}

TEST(JitCodeBuffer, AlignAndPatch) {
  jit::CodeBuffer code;
  code.put8(0x01);
  code.align_to(8);
  EXPECT_EQ(code.size() % 8, 0u);
  const std::size_t at = code.size();
  code.put32(0);
  code.patch32(at, 0xDEADBEEF);
  EXPECT_TRUE(code.ok());
}

TEST(JitCodeBuffer, MoveTransfersOwnership) {
  jit::CodeBuffer a;
  a.put8(0xC3);
  jit::CodeBuffer b = std::move(a);
  EXPECT_EQ(b.size(), 1u);
  ASSERT_TRUE(b.protect());
  reinterpret_cast<void (*)()>(const_cast<void*>(b.entry(0)))();
}

TEST(JitEmitter, PoolInternsByBitPattern) {
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  const std::size_t a = emitter.pool_const(1.5);
  const std::size_t b = emitter.pool_const(1.5);
  const std::size_t c = emitter.pool_const(2.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // +0.0 and -0.0 are different bit patterns and must not collapse (a
  // blended leaf payload of -0.0 vs +0.0 would select the wrong bits).
  EXPECT_NE(emitter.pool_const(0.0), emitter.pool_const(-0.0));
}

TEST(JitEmitter, HandEmittedRowLoopExecutes) {
  // The forest kernels' scaffolding in miniature: a row loop over r9
  // accumulating a pooled constant into votes[r9]. Executing it proves
  // label binding, rel32 patching, RIP-relative pool fixups, and the
  // SIB-indexed load/store encodings in one go.
  jit::CodeBuffer code;
  jit::X64Emitter emitter(code);
  const std::size_t entry_offset = emitter.offset();
  const std::size_t slot = emitter.pool_const(2.5);
  emitter.zero_r9();
  const jit::X64Emitter::Label loop = emitter.make_label();
  const jit::X64Emitter::Label done = emitter.make_label();
  emitter.bind(loop);
  emitter.cmp_r9_rsi();
  emitter.jae(done);
  emitter.movsd_load_const(0, slot);
  emitter.movsd_load_indexed(1, jit::kRdx, 0);
  emitter.addsd(1, 0);
  emitter.movsd_store_indexed(1, jit::kRdx, 0);
  emitter.inc_r9();
  emitter.jmp(loop);
  emitter.bind(done);
  emitter.ret();
  ASSERT_TRUE(emitter.finish());
  ASSERT_TRUE(code.protect());

  using KernelFn = void (*)(const double*, std::size_t, double*, double*,
                            double*);
  const auto fn = reinterpret_cast<KernelFn>(
      const_cast<void*>(code.entry(entry_offset)));
  std::vector<double> votes = {1.0, 0.0, -2.5, 10.0};
  fn(nullptr, votes.size(), votes.data(), nullptr, nullptr);
  EXPECT_EQ(votes, (std::vector<double>{3.5, 2.5, 0.0, 12.5}));
}

#endif  // HMD_JIT_SUPPORTED

TEST(JitPolicy, AvailableMatchesBuild) {
  EXPECT_EQ(jit::available(), HMD_JIT_SUPPORTED != 0);
}

TEST(JitPolicy, SetAndQueryRoundTrips) {
  const PolicyGuard guard;
  for (const auto p :
       {jit::Policy::kOn, jit::Policy::kOff, jit::Policy::kAuto}) {
    jit::set_policy(p);
    EXPECT_EQ(jit::policy(), p);
  }
}

TEST(JitPolicy, AutoDeclinesStumpForestsAndTakesDeepOnes) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kAuto);
  core::TrustedHmd stumpy(rf_config(100));
  stumpy.fit(test::small_dvfs().train);  // well-separated: mostly stumps
  core::TrustedHmd deep(rf_config(100));
  deep.fit(test::small_hpc().train);  // overlapping classes: deep trees
  EXPECT_FALSE(jit::should_compile(stumpy.flat_forest()));
  // Arena at load for both; after kJitPromoteRows rows of one shape the
  // deep forest tiers up to jit and the stump forest stays interpreted.
  EXPECT_NE(stumpy.engine().kernel_backend(), "jit");
  EXPECT_NE(deep.engine().kernel_backend(), "jit");
  EXPECT_EQ(deep.flat_forest().jit_code_bytes(), 0u);
  score_rows(stumpy, kPromote, core::kStatsAll, test::small_dvfs().test.X);
  score_rows(deep, kPromote, core::kStatsAll);
  ASSERT_TRUE(drain_compile_worker());
  EXPECT_NE(stumpy.engine().kernel_backend(), "jit");
  if (jit::available()) {
    EXPECT_TRUE(jit::should_compile(deep.flat_forest()));
    EXPECT_EQ(deep.engine().kernel_backend(), "jit");
  }
  // Off/on override the heuristic in both directions (on only where the
  // backend exists at all).
  jit::set_policy(jit::Policy::kOff);
  EXPECT_FALSE(jit::should_compile(deep.flat_forest()));
  jit::set_policy(jit::Policy::kOn);
  EXPECT_EQ(jit::should_compile(stumpy.flat_forest()), jit::available());
}

TEST(JitPolicy, OffPinsTheInterpretedArena) {
  const PolicyGuard guard;
  jit::set_policy(jit::Policy::kOff);
  core::TrustedHmd hmd(rf_config(20));
  hmd.fit(test::small_hpc().train);
  // A freshly-trained engine owns its arrays on the heap, so the
  // interpreted backend reports as the copied-bytes flavour — the point
  // here is only that kOff never produces native code.
  EXPECT_EQ(hmd.engine().kernel_backend(), "stream-fallback");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
  EXPECT_EQ(hmd.flat_forest().jit_compile_ms(), 0.0);
}

TEST(JitFallback, CompileForestHonoursAvailability) {
  core::TrustedHmd hmd(rf_config(10));
  hmd.fit(test::small_dvfs().train);
  const auto program = jit::compile_forest(hmd.flat_forest());
  if (jit::available()) {
    ASSERT_NE(program, nullptr);
    EXPECT_GT(program->code_bytes(), 0u);
    for (unsigned shape = 0; shape < 4; ++shape) {
      EXPECT_NE(program->kernel(shape), nullptr);
    }
  } else {
    EXPECT_EQ(program, nullptr);
  }
}

TEST(JitTierUp, AutoLoadsDeepForestOnArenaWithNoCode) {
  const DeepArtifact artifact(30);
  const core::TrustedHmd hmd = artifact.load(jit::Policy::kAuto);
  EXPECT_EQ(jit::should_compile(hmd.flat_forest()), jit::available());
  EXPECT_EQ(hmd.engine().kernel_backend(), "arena");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
  EXPECT_EQ(hmd.flat_forest().jit_compile_ms(), 0.0);
}

TEST(JitTierUp, BelowThresholdStaysOnArena) {
  const DeepArtifact artifact(30);
  const core::TrustedHmd hmd = artifact.load(jit::Policy::kAuto);
  // Just under the threshold in two shapes: the counters are per shape,
  // so neither crosses.
  score_rows(hmd, kPromote - 1, core::kStatsAll);
  score_rows(hmd, 256, core::kStatsVotes);
  score_rows(hmd, kPromote - 257, core::kStatsVotes);
  ASSERT_TRUE(drain_compile_worker());
  EXPECT_EQ(hmd.engine().kernel_backend(), "arena");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
}

TEST(JitTierUp, PastThresholdCompilesOnlyThatShape) {
  const DeepArtifact artifact(30);
  const core::TrustedHmd hmd = artifact.load(jit::Policy::kAuto);
  score_rows(hmd, kPromote - 1, core::kStatsAll);
  score_rows(hmd, 1, core::kStatsAll);  // the row that crosses
  ASSERT_TRUE(drain_compile_worker());
  if (!jit::available()) {
    EXPECT_EQ(hmd.engine().kernel_backend(), "arena");
    return;
  }
  EXPECT_EQ(hmd.engine().kernel_backend(), "jit");
  EXPECT_GT(hmd.flat_forest().jit_compile_ms(), 0.0);
  // Exactly the posterior + entropy shape's code: emission is
  // deterministic, so a fresh compile of that one shape has its size,
  // and it is well under an all-shape compile.
  const auto one = jit::compile_forest(hmd.flat_forest(), jit::shape_bit(3));
  const auto all = jit::compile_forest(hmd.flat_forest());
  ASSERT_NE(one, nullptr);
  ASSERT_NE(all, nullptr);
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), one->code_bytes());
  EXPECT_LT(one->code_bytes(), all->code_bytes());
  // Another shape below its own threshold compiles nothing more.
  score_rows(hmd, kPromote - 1, core::kStatsVotes);
  ASSERT_TRUE(drain_compile_worker());
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), one->code_bytes());
}

TEST(JitTierUp, ResultsBitIdenticalAcrossInstallUnderConcurrentScoring) {
  // Scoring threads keep going while the background compile installs
  // the native row under them: every batch — before, during and after
  // the install — must match the arena reference bit for bit. On the
  // TSan job this is the race check of the release/acquire install.
  const DeepArtifact artifact(30);
  const Matrix& x = test::small_hpc().test.X;
  const auto expected =
      artifact.load(jit::Policy::kOff).estimate_batch(x);
  const core::TrustedHmd hmd = artifact.load(jit::Policy::kAuto, 2);
  constexpr int kThreads = 4;
  // Enough batches for the threads to carry the shape past the
  // threshold several times over, then keep scoring after the install.
  const std::size_t batches_to_cross =
      kPromote / (x.rows() * kThreads) + 1;
  std::atomic<bool> installed{false};
  std::vector<int> mismatches(kThreads, 0);
  std::vector<int> after_install(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(60);
        for (std::size_t i = 0;; ++i) {
          if (!same_estimates(hmd.estimate_batch(x), expected)) {
            ++mismatches[t];
          }
          if (installed.load()) ++after_install[t];
          if (!installed.load() &&
              hmd.engine().kernel_backend() == "jit") {
            installed.store(true);
          }
          const bool done = jit::available()
                                ? after_install[t] >= 5
                                : i >= 2 * batches_to_cross;
          if (done || std::chrono::steady_clock::now() > deadline) break;
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  EXPECT_EQ(installed.load(), jit::available());
}

TEST(JitTierUp, EngineDestroyedMidCompileIsClean) {
  if (!jit::available()) return;  // nothing compiles, nothing to cancel
  // Every tree's emission stalls 20 ms, so the 100-tree compile would
  // take 2 s; destroying the engine mid-compile must cancel it at the
  // next tree instead of waiting, and free everything (ASan job).
  const FailpointGuard failpoints;
  const DeepArtifact artifact(100);
  std::optional<core::TrustedHmd> hmd = artifact.load(jit::Policy::kAuto);
  fail::Spec stall;
  stall.action = fail::Spec::Action::kDelay;
  stall.delay_ms = 20;
  fail::arm("jit.compile", stall);
  score_rows(*hmd, kPromote, core::kStatsAll);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (fail::hit_count("jit.compile") < 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_GE(fail::hit_count("jit.compile"), 2) << "compile never started";
  const auto t0 = std::chrono::steady_clock::now();
  hmd.reset();
  const double destroy_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - t0)
                                .count();
  const int hits_at_destroy = fail::hit_count("jit.compile");
  ASSERT_TRUE(drain_compile_worker());
  EXPECT_LT(destroy_ms, 1000.0);
  EXPECT_LT(hits_at_destroy, 100);
  EXPECT_LE(fail::hit_count("jit.compile"), hits_at_destroy + 1);
}

TEST(JitTierUp, CompileFailpointLeavesArenaServing) {
  const FailpointGuard failpoints;
  const DeepArtifact artifact(30);
  const Matrix& x = test::small_hpc().test.X;
  const auto expected =
      artifact.load(jit::Policy::kOff).estimate_batch(x);
  const core::TrustedHmd hmd = artifact.load(jit::Policy::kAuto);
  fail::Spec broken;
  broken.action = fail::Spec::Action::kError;
  broken.code = LoadErrorCode::kIo;
  fail::arm("jit.compile", broken);
  score_rows(hmd, kPromote, core::kStatsAll);
  ASSERT_TRUE(drain_compile_worker());
  const int hits = fail::hit_count("jit.compile");
  EXPECT_EQ(hits, jit::available() ? 1 : 0);
  EXPECT_EQ(hmd.engine().kernel_backend(), "arena");
  EXPECT_EQ(hmd.flat_forest().jit_code_bytes(), 0u);
  EXPECT_TRUE(same_estimates(hmd.estimate_batch(x), expected));
  // A declined shape is never retried, even with the fault gone.
  fail::disarm_all();
  score_rows(hmd, kPromote, core::kStatsAll);
  ASSERT_TRUE(drain_compile_worker());
  EXPECT_EQ(hmd.engine().kernel_backend(), "arena");
  EXPECT_EQ(fail::hit_count("jit.compile"), hits);
}

TEST(JitConcurrency, ConcurrentFirstGetCompilesRaceClean) {
  // Several threads hit first-get() on several keys at once with the JIT
  // forced on: compiles run inside each entry's load mutex, off the
  // registry-wide lock. Every snapshot must score bit-identically to an
  // arena-loaded reference — and TSan must stay silent (this suite is in
  // the TSan CI filter).
  const PolicyGuard guard;
  const auto& bundle = test::small_hpc();
  std::string dir_name = "jit_concurrency_tmp_";
  dir_name += ::testing::UnitTest::GetInstance()->current_test_info()->name();
  const std::filesystem::path dir = dir_name;
  std::filesystem::create_directories(dir);
  core::TrustedHmd trained(rf_config(20));
  trained.fit(bundle.train);
  constexpr int kKeys = 3;
  for (int k = 0; k < kKeys; ++k) {
    core::save_model(trained, (dir / (model_key(k) + ".hmdf")).string());
  }

  jit::set_policy(jit::Policy::kOff);
  const core::TrustedHmd reference =
      core::load_model((dir / "m0.hmdf").string(), /*n_threads=*/1);
  const auto expected = reference.estimate_batch(bundle.test.X);

  jit::set_policy(jit::Policy::kOn);
  api::DetectorRegistry registry(/*n_threads=*/1);
  for (int k = 0; k < kKeys; ++k) {
    registry.add(model_key(k), (dir / (model_key(k) + ".hmdf")).string());
  }
  constexpr int kThreads = 6;
  std::vector<int> mismatches(kThreads, 0);
  {
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int k = 0; k < kKeys; ++k) {
          const auto hmd = registry.get(model_key(k % kKeys));
          const auto got = hmd->estimate_batch(bundle.test.X);
          for (std::size_t r = 0; r < got.size(); ++r) {
            if (got[r].votes_malware != expected[r].votes_malware ||
                got[r].soft_entropy != expected[r].soft_entropy ||
                got[r].score != expected[r].score) {
              ++mismatches[t];
            }
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
  }
  for (int t = 0; t < kThreads; ++t) EXPECT_EQ(mismatches[t], 0);
  for (int k = 0; k < kKeys; ++k) {
    const auto health = registry.health(model_key(k));
    EXPECT_EQ(health.kernel_backend,
              jit::available() ? "jit" : "arena");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
