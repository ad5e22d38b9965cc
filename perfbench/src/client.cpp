#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <map>
#include <stdexcept>

#include "serve/wire.h"

namespace pb {

namespace wire = hmd::serve::wire;

namespace {

constexpr std::size_t kMaxPayload = 64u << 20;

int connect_loopback(std::uint16_t port, bool nonblocking) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    throw std::runtime_error("socket: " + std::string(strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string detail = strerror(errno);
    ::close(fd);
    throw std::runtime_error("connect: " + detail);
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  if (nonblocking) ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
  return fd;
}

void patch_id(std::vector<unsigned char>& frame, std::size_t at,
              std::uint32_t id) {
  std::memcpy(frame.data() + at + 8, &id, sizeof(id));
}

struct Outstanding {
  std::uint32_t id = 0;
  std::uint32_t plan_index = 0;
  Clock::time_point start;  ///< due time (open loop) or send time
};

struct Conn {
  int fd = -1;
  std::vector<unsigned char> out;
  std::size_t out_sent = 0;
  std::vector<unsigned char> in;
  std::size_t parsed = 0;
  std::map<std::uint32_t, Outstanding> outstanding;  ///< by request id
};

}  // namespace

ClientReport run_client(const ClientOptions& options) {
  const std::vector<PlannedRequest>& plan = *options.plan;
  const bool open_loop = options.rate_rps > 0.0;
  std::vector<Conn> conns(static_cast<std::size_t>(options.connections));
  for (Conn& c : conns) c.fd = connect_loopback(options.port, true);

  ClientReport report;
  if (open_loop) {
    const auto expected = static_cast<std::size_t>(options.rate_rps *
                                                   options.seconds) + 16;
    report.latency_us.reserve(expected);
    report.lateness_us.reserve(expected);
  }
  hmd::api::ScoreResult scratch;
  std::vector<pollfd> fds(conns.size());
  std::uint32_t next_id = 1;
  std::size_t plan_cursor = options.plan_offset % plan.size();
  std::uint64_t sent_total = 0;
  Tracer& trace = tracer();

  const auto start = Clock::now();
  const auto stop_sending =
      start + std::chrono::nanoseconds(
                  static_cast<std::int64_t>(options.seconds * 1e9));
  const auto interval =
      open_loop ? std::chrono::nanoseconds(static_cast<std::int64_t>(
                      1e9 / options.rate_rps))
                : std::chrono::nanoseconds(0);
  auto next_due = start;

  const auto send_request = [&](Conn& c, Clock::time_point due) {
    const std::uint32_t index = static_cast<std::uint32_t>(plan_cursor);
    plan_cursor = (plan_cursor + 1) % plan.size();
    const std::size_t at = c.out.size();
    c.out.insert(c.out.end(), plan[index].frame.begin(),
                 plan[index].frame.end());
    const std::uint32_t id = next_id++;
    patch_id(c.out, at, id);
    c.outstanding.emplace(id, Outstanding{id, index, due});
    if (options.record_stream) report.stream.push_back(index);
    ++report.attempted;
    ++sent_total;
  };

  const auto fail = [&](const std::string& why) {
    ++report.failed;
    if (report.first_error.empty()) report.first_error = why;
  };

  const auto handle_frame = [&](Conn& c, const wire::Frame& frame,
                                Clock::time_point decode_start) {
    const auto now = Clock::now();
    const std::uint32_t id = frame.type == wire::FrameType::kError
                                 ? frame.error.request_id
                                 : frame.result.request_id;
    const auto it = c.outstanding.find(id);
    if (it == c.outstanding.end()) {
      fail("response to no outstanding request");
      return;
    }
    if (it != c.outstanding.begin()) ++report.reordered;
    const Outstanding o = it->second;
    c.outstanding.erase(it);
    if (frame.type != wire::FrameType::kScoreResult) {
      fail("error frame: " + std::string(frame.error.detail));
      return;
    }
    wire::unpack_result(frame.result, scratch);
    const auto decoded = Clock::now();
    const PlannedRequest& request = plan[o.plan_index];
    std::string why = frame.result.accuracy != request.tier
                          ? std::string("tier not echoed")
                          : options.verify(request, scratch);
    if (!why.empty()) {
      fail(why);
      return;
    }
    report.rows_ok += request.rows;
    if (open_loop) report.latency_us.push_back(us_between(o.start, now));
    const auto window = static_cast<std::size_t>(
        std::chrono::duration<double>(now - start).count() / kWindowSeconds);
    if (window >= report.rows_per_window.size()) {
      report.rows_per_window.resize(window + 1, 0);
    }
    report.rows_per_window[window] += request.rows;
    if (trace.enabled() && o.id % options.trace_every == 0) {
      trace.record("serve.client.request", o.id, o.start, now);
      trace.record("serve.wire.result_decode", o.id, decode_start, decoded);
    }
  };

  std::size_t outstanding_total = 0;
  const auto drain_deadline = [&] {
    return stop_sending + std::chrono::seconds(10);
  };
  for (;;) {
    auto now = Clock::now();
    if (options.rss != nullptr) options.rss->maybe_sample(now);
    const bool sending = now < stop_sending;
    if (sending) {
      if (open_loop) {
        while (next_due <= now && next_due < stop_sending) {
          Conn& c = conns[sent_total % conns.size()];
          send_request(c, next_due);
          report.lateness_us.push_back(us_between(next_due, now));
          next_due += interval;
        }
      } else {
        for (Conn& c : conns) {
          while (c.outstanding.size() <
                 static_cast<std::size_t>(options.pipeline)) {
            send_request(c, now);
          }
        }
      }
    }
    outstanding_total = 0;
    for (const Conn& c : conns) outstanding_total += c.outstanding.size();
    if (!sending && outstanding_total == 0) break;
    if (!sending && now > drain_deadline()) {
      for (std::size_t i = 0; i < outstanding_total; ++i) {
        fail("no response before the drain deadline");
      }
      break;
    }

    // Send first without waiting: most frames fit the socket buffer.
    for (Conn& c : conns) {
      while (c.out_sent < c.out.size()) {
        const ssize_t n = ::send(c.fd, c.out.data() + c.out_sent,
                                 c.out.size() - c.out_sent, MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out_sent += static_cast<std::size_t>(n);
      }
      if (c.out_sent == c.out.size()) {
        c.out.clear();
        c.out_sent = 0;
      }
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i].fd;
      fds[i].events = POLLIN;
      if (conns[i].out_sent < conns[i].out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    timespec timeout{0, 0};
    if (open_loop && sending && next_due > now) {
      const auto wait = std::min<std::chrono::nanoseconds>(
          next_due - now, std::chrono::milliseconds(5));
      timeout.tv_nsec = static_cast<long>(wait.count());
    } else if (!open_loop || !sending) {
      timeout.tv_nsec = 5'000'000;
    }
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error("ppoll: " + std::string(strerror(errno)));
    }
    if (ready == 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Conn& c = conns[i];
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      unsigned char buf[1 << 16];
      for (;;) {
        const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
        if (n > 0) {
          c.in.insert(c.in.end(), buf, buf + n);
          continue;
        }
        if (n == 0) throw std::runtime_error("server closed a connection");
        if (errno == EAGAIN || errno == EWOULDBLOCK) break;
        if (errno == EINTR) continue;
        throw std::runtime_error("recv: " + std::string(strerror(errno)));
      }
      for (;;) {
        const auto decode_start = Clock::now();
        wire::Frame frame;
        const std::size_t used = wire::parse_frame(
            c.in.data() + c.parsed, c.in.size() - c.parsed, kMaxPayload, frame);
        if (used == 0) break;
        handle_frame(c, frame, decode_start);
        c.parsed += used;
      }
      if (c.parsed == c.in.size()) {
        c.in.clear();
        c.parsed = 0;
      } else if (c.parsed > (1u << 20)) {
        c.in.erase(c.in.begin(), c.in.begin() + static_cast<long>(c.parsed));
        c.parsed = 0;
      }
    }
  }
  for (Conn& c : conns) ::close(c.fd);
  return report;
}

BlockingConnection::BlockingConnection(std::uint16_t port)
    : fd_(connect_loopback(port, false)) {}

BlockingConnection::~BlockingConnection() {
  if (fd_ >= 0) ::close(fd_);
}

std::string BlockingConnection::call(const PlannedRequest& request,
                                     hmd::api::ScoreResult& result) {
  std::vector<unsigned char> frame = request.frame;
  const std::uint32_t id = next_id_++;
  patch_id(frame, 0, id);
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n =
        ::send(fd_, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) return "send failed";
    sent += static_cast<std::size_t>(n);
  }
  in_.clear();
  for (;;) {
    wire::Frame parsed;
    const std::size_t used =
        wire::parse_frame(in_.data(), in_.size(), kMaxPayload, parsed);
    if (used > 0) {
      if (parsed.type == wire::FrameType::kError) {
        return "error frame: " + std::string(parsed.error.detail);
      }
      if (parsed.type != wire::FrameType::kScoreResult ||
          parsed.result.request_id != id) {
        return "unexpected frame";
      }
      wire::unpack_result(parsed.result, result);
      return "";
    }
    unsigned char buf[1 << 16];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n <= 0) return "connection closed";
    in_.insert(in_.end(), buf, buf + n);
  }
}

}  // namespace pb
