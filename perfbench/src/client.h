#pragma once
// The benchmark's own load generator, built on the public wire:: encoders
// and decoders. One thread drives every connection with poll().
//
//  - Closed loop: each connection keeps `pipeline` requests outstanding
//    and sends the next one only when a response returns.
//  - Open loop: request k is due at start + k / rate, whatever the server
//    is doing, and goes out on connection k mod connections. Its latency
//    is timed from when it was due, not from when the generator got round
//    to sending it, so a stalled generator cannot hide queueing delay; how
//    late each send was is reported separately (lateness).
//
// Every response is checked by the caller's verifier against the oracle.

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "api/score.h"
#include "bench.h"

namespace pb {

/// One request of a workload's plan: which model, tier and source rows,
/// and the request frame encoded once by wire::append_request (the
/// request id is patched at send time).
struct PlannedRequest {
  std::uint32_t model = 0;
  hmd::core::Accuracy tier = hmd::core::Accuracy::kExact;
  std::uint32_t row_start = 0;
  std::uint32_t rows = 0;
  std::vector<unsigned char> frame;
};

/// Returns "" when the response is right, else what is wrong.
using Verifier = std::function<std::string(const PlannedRequest&,
                                           const hmd::api::ScoreResult&)>;

struct ClientOptions {
  std::uint16_t port = 0;
  int connections = 4;
  /// Closed loop: outstanding requests per connection.
  int pipeline = 8;
  /// Open loop when > 0: total request rate over all connections.
  double rate_rps = 0.0;
  double seconds = 1.0;
  const std::vector<PlannedRequest>* plan = nullptr;  ///< cycled
  std::size_t plan_offset = 0;
  Verifier verify;
  RssSampler* rss = nullptr;
  /// Keep the plan index of every request in send order (the stream the
  /// traced run replays through a directly driven batcher).
  bool record_stream = false;
  /// Traced run: record the spans of every n-th request only.
  std::uint32_t trace_every = 1;
};

struct ClientReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t rows_ok = 0;
  /// Responses that overtook an earlier request of the same connection.
  std::uint64_t reordered = 0;
  /// Open loop: per answered request (the closed loop keeps none, so the
  /// benchmark's own memory does not grow with the server's throughput).
  std::vector<double> latency_us;
  /// Rows answered in each kWindowSeconds window since the start.
  std::vector<std::uint64_t> rows_per_window;
  std::vector<double> lateness_us;  ///< open loop: send time - due time
  std::vector<std::uint32_t> stream;
  std::string first_error;
};

inline constexpr double kWindowSeconds = 0.25;

ClientReport run_client(const ClientOptions& options);

/// A blocking single connection for one-at-a-time requests (the swap
/// phase): send one planned request, wait for its answer.
class BlockingConnection {
 public:
  explicit BlockingConnection(std::uint16_t port);
  ~BlockingConnection();
  BlockingConnection(const BlockingConnection&) = delete;
  BlockingConnection& operator=(const BlockingConnection&) = delete;

  /// Returns "" and fills `result` on a result frame, else the error.
  std::string call(const PlannedRequest& request,
                   hmd::api::ScoreResult& result);

 private:
  int fd_ = -1;
  std::uint32_t next_id_ = 1;
  std::vector<unsigned char> in_;
};

}  // namespace pb
