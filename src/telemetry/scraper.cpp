#include "telemetry/scraper.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "telemetry/prometheus.hpp"

namespace reasched::telemetry {

namespace {

double unix_seconds() {
  return std::chrono::duration<double>(
             std::chrono::system_clock::now().time_since_epoch())
      .count();
}

void write_json_string(std::ostream& os, std::string_view s) {
  os << '"';
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    os << c;
  }
  os << '"';
}

/// One scrape as one JSON line (the rotating metrics file's record).
std::string delta_json_line(const DeltaSnapshot& delta) {
  std::ostringstream os;
  os << "{\"seq\":" << delta.sequence << ",\"wall_s\":" << delta.wall_s
     << ",\"interval_s\":" << delta.interval_s << ",\"counters\":{";
  for (std::size_t i = 0; i < delta.counters.size(); ++i) {
    const auto& c = delta.counters[i];
    if (i != 0) os << ",";
    write_json_string(os, c.name);
    os << ":{\"total\":" << c.total << ",\"delta\":" << c.delta
       << ",\"per_s\":" << c.per_s << "}";
  }
  os << "},\"gauges\":{";
  for (std::size_t i = 0; i < delta.gauges.size(); ++i) {
    if (i != 0) os << ",";
    write_json_string(os, delta.gauges[i].name);
    os << ":" << delta.gauges[i].value;
  }
  os << "},\"histograms\":{";
  for (std::size_t i = 0; i < delta.histograms.size(); ++i) {
    const auto& h = delta.histograms[i];
    if (i != 0) os << ",";
    write_json_string(os, h.name);
    os << ":{\"count\":" << h.total_count
       << ",\"delta_count\":" << h.interval.total()
       << ",\"p50\":" << h.interval.percentile(0.50)
       << ",\"p99\":" << h.interval.percentile(0.99)
       << ",\"p999\":" << h.interval.percentile(0.999)
       << ",\"max\":" << h.interval.max() << "}";
  }
  os << "}}\n";
  return os.str();
}

}  // namespace

DeltaSnapshot delta_since(const Registry::Snapshot& prev,
                          const Registry::Snapshot& cur, double interval_s) {
  DeltaSnapshot out;
  out.interval_s = interval_s;
  // Interning only appends, so a snapshot taken earlier in the same
  // process is an index-wise prefix of a later one; the name check guards
  // a reset-plus-new-interning edge.
  for (std::size_t i = 0; i < cur.counters.size(); ++i) {
    DeltaSnapshot::CounterDelta c;
    c.name = cur.counters[i].first;
    c.total = cur.counters[i].second;
    const std::uint64_t before =
        i < prev.counters.size() && prev.counters[i].first == c.name
            ? prev.counters[i].second
            : 0;
    c.delta = c.total >= before ? c.total - before : 0;
    c.per_s = interval_s > 0.0 ? static_cast<double>(c.delta) / interval_s : 0.0;
    out.counters.push_back(std::move(c));
  }
  for (const auto& [name, value] : cur.gauges) {
    out.gauges.push_back({name, value});
  }
  for (std::size_t i = 0; i < cur.histograms.size(); ++i) {
    const auto& ch = cur.histograms[i];
    DeltaSnapshot::HistogramDelta h;
    h.name = ch.name;
    h.unit = ch.unit;
    h.total_count = ch.hist.total();
    const LatencyHistogram* before = nullptr;
    if (i < prev.histograms.size() && prev.histograms[i].name == ch.name) {
      before = &prev.histograms[i].hist;
    }
    for (std::uint32_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t now = ch.hist.buckets()[b];
      const std::uint64_t was = before != nullptr ? before->buckets()[b] : 0;
      // kCount buckets are monotone so the clamp never fires; kTicks
      // buckets can shift a sample across a boundary when the tick→ns
      // calibration drifts between scrapes.
      if (now > was) h.interval.add_bucket(b, now - was);
    }
    out.histograms.push_back(std::move(h));
  }
  return out;
}

Scraper::Scraper(Options options) : options_(std::move(options)) {
  if (options_.interval_ms == 0) options_.interval_ms = 1;
  paused_.store(options_.start_paused, std::memory_order_relaxed);
  if (options_.port >= 0) {
    listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listen_fd_ >= 0) {
      const int one = 1;
      ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
      if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                 sizeof(addr)) == 0 &&
          ::listen(listen_fd_, 16) == 0) {
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                          &len) == 0) {
          port_ = ntohs(bound.sin_port);
        }
        listener_ = std::thread([this] { serve(); });
      } else {
        ::close(listen_fd_);
        listen_fd_ = -1;
      }
    }
  }
  thread_ = std::thread([this] { run(); });
}

Scraper::~Scraper() { stop(); }

void Scraper::stop() {
  const bool already = stopping_.exchange(true, std::memory_order_acq_rel);
  {
    std::lock_guard<std::mutex> lock(wake_mutex_);
    wake_cv_.notify_all();
  }
  if (thread_.joinable()) thread_.join();
  if (listen_fd_ >= 0) {
    // Unblocks the listener's accept() (returns with an error on Linux
    // once the listening socket is shut down). The listener reads
    // listen_fd_, so the descriptor is closed only after it has exited.
    ::shutdown(listen_fd_, SHUT_RDWR);
    if (listener_.joinable()) listener_.join();
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Final scrape: the sum of emitted deltas equals the cumulative totals.
  if (!already) scrape();
}

void Scraper::set_paused(bool paused) {
  paused_.store(paused, std::memory_order_relaxed);
}

void Scraper::scrape_now() { scrape(); }

std::string Scraper::exposition() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return exposition_;
}

DeltaSnapshot Scraper::last_delta() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return last_delta_;
}

void Scraper::run() {
  const auto interval = std::chrono::milliseconds(options_.interval_ms);
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(wake_mutex_);
      wake_cv_.wait_for(lock, interval, [this] {
        return stopping_.load(std::memory_order_relaxed);
      });
    }
    if (stopping_.load(std::memory_order_relaxed)) return;
    if (!paused_.load(std::memory_order_relaxed)) scrape();
  }
}

void Scraper::scrape() {
  DeltaSnapshot delta;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    const std::uint64_t now = now_ns();
    Registry::Snapshot cur = Registry::global().snapshot();
    const double interval_s =
        have_prev_ ? static_cast<double>(now - prev_ns_) * 1e-9 : 0.0;
    delta = delta_since(have_prev_ ? prev_ : Registry::Snapshot{}, cur,
                        interval_s);
    delta.sequence = scrapes_.fetch_add(1, std::memory_order_relaxed) + 1;
    delta.wall_s = unix_seconds();
    exposition_ = prometheus_text(cur);
    prev_ = std::move(cur);
    have_prev_ = true;
    prev_ns_ = now;
    if (!options_.out_path.empty()) {
      const std::string line = delta_json_line(delta);
      rotate_if_needed();
      std::ofstream out(options_.out_path, out_bytes_ == 0
                                               ? std::ios::trunc
                                               : std::ios::app);
      if (out) {
        out << line;
        out_bytes_ += line.size();
      }
    }
    last_delta_ = delta;
  }
  // Outside the lock: the callback may call exposition()/last_delta().
  if (options_.on_scrape) options_.on_scrape(delta);
}

void Scraper::rotate_if_needed() {
  if (out_bytes_ == 0 || out_bytes_ < options_.rotate_bytes) return;
  const auto rotated = [this](std::uint32_t n) {
    return options_.out_path + "." + std::to_string(n);
  };
  if (options_.keep_files == 0) {
    std::remove(options_.out_path.c_str());
  } else {
    std::remove(rotated(options_.keep_files).c_str());
    for (std::uint32_t n = options_.keep_files; n > 1; --n) {
      std::rename(rotated(n - 1).c_str(), rotated(n).c_str());
    }
    std::rename(options_.out_path.c_str(), rotated(1).c_str());
  }
  out_bytes_ = 0;
}

void Scraper::serve() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load(std::memory_order_relaxed) || errno != EINTR) return;
      continue;
    }
    // Best-effort read of the request line; the response is the same for
    // every path, so a slow or silent client only costs the timeout.
    timeval timeout{};
    timeout.tv_usec = 100 * 1000;
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    char buf[1024];
    (void)::recv(client, buf, sizeof(buf), 0);
    std::string body = exposition();
    if (body.empty()) {
      // No scrape yet: serve a fresh exposition rather than nothing.
      body = prometheus_text(Registry::global().snapshot());
    }
    std::string reply =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n\r\n" +
        body;
    std::size_t sent = 0;
    while (sent < reply.size()) {
      const auto n = ::send(client, reply.data() + sent, reply.size() - sent,
                            MSG_NOSIGNAL);
      if (n <= 0) break;
      sent += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace reasched::telemetry
