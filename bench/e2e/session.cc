#include "session.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sched.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <sstream>

#include "serve/net/frame.h"
#include "workloads.h"

namespace adrdedup::bench::e2e {

namespace {

using serve::net::DecodeFrame;
using serve::net::DecodeScreenResponse;
using serve::net::DecodeStatus;
using serve::net::Frame;
using serve::net::FrameType;
using serve::net::ScreenResponseBody;
using serve::net::ScreenStatus;

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr size_t kStderrTail = 4096;
// Seconds a phase may run past its last scheduled send before the
// requests still in flight count as unanswered.
constexpr double kPhaseDeadlineS = 90.0;

double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void SetNonBlocking(int fd) {
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK);
}

// With four or more CPUs the load generator keeps the last one to itself
// and the server runs on the rest, so neither delays the other's
// wake-ups (the server's three executors fill the other cores).
class CpuSplit {
 public:
  CpuSplit() {
    CPU_ZERO(&all_);
    if (::sched_getaffinity(0, sizeof(all_), &all_) != 0 ||
        CPU_COUNT(&all_) < 4) {
      return;
    }
    int last = -1;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &all_)) last = cpu;
    }
    server_ = all_;
    CPU_CLR(last, &server_);
    CPU_ZERO(&generator_);
    CPU_SET(last, &generator_);
    active_ = ::sched_setaffinity(0, sizeof(generator_), &generator_) == 0;
  }
  // Restores the calling thread's CPU set.
  ~CpuSplit() {
    if (active_) ::sched_setaffinity(0, sizeof(all_), &all_);
  }
  CpuSplit(const CpuSplit&) = delete;
  CpuSplit& operator=(const CpuSplit&) = delete;

  const cpu_set_t* server() const { return active_ ? &server_ : nullptr; }

 private:
  bool active_ = false;
  cpu_set_t all_;
  cpu_set_t server_;
  cpu_set_t generator_;
};

// glibc's malloc raises its mmap threshold each time a large mapped block
// is freed, so whether a later large buffer is mapped (and unmapped when
// freed) or carved from the heap (and stays resident) depends on the order
// of earlier allocations. With the default, screen-durable's peak memory
// moved between 230 and 238 MiB with the seed's stream order; a fixed
// threshold makes peak memory follow the live data.
constexpr char kMallocEnv[] = "MALLOC_MMAP_THRESHOLD_=1048576";

// fork + exec with the child's stdout/stderr on the given descriptors,
// optionally confined to `cpus`, in the benchmark's environment plus
// kMallocEnv. The child dies with the benchmark (PR_SET_PDEATHSIG), so an
// aborted run never leaves a server behind.
pid_t Spawn(const std::vector<std::string>& argv, int stdout_fd,
            int stderr_fd, const cpu_set_t* cpus = nullptr) {
  std::vector<char*> args;
  for (const std::string& arg : argv) {
    args.push_back(const_cast<char*>(arg.c_str()));
  }
  args.push_back(nullptr);
  std::vector<char*> env;
  for (char** var = environ; *var != nullptr; ++var) {
    if (std::strncmp(*var, "MALLOC_MMAP_THRESHOLD_=", 23) != 0) {
      env.push_back(*var);
    }
  }
  env.push_back(const_cast<char*>(kMallocEnv));
  env.push_back(nullptr);
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid != 0) return pid;
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(127);
  if (cpus != nullptr) ::sched_setaffinity(0, sizeof(*cpus), cpus);
  ::dup2(stdout_fd, STDOUT_FILENO);
  ::dup2(stderr_fd, STDERR_FILENO);
  ::execve(args[0], args.data(), env.data());
  ::_exit(127);
}

struct Exit {
  bool exited = false;  // false: killed at the deadline
  int status = -1;
  double time = 0.0;
  double cpu_s = 0.0;
  double maxrss_mb = 0.0;
};

// Waits for `pid` until the absolute `deadline` (Now() clock), then
// SIGKILLs it. A pidfd wakes the wait at the exit itself, so the exit
// timestamp carries no polling granularity.
Exit WaitFor(pid_t pid, double deadline) {
  Exit out;
  const int pidfd = static_cast<int>(::syscall(SYS_pidfd_open, pid, 0));
  while (true) {
    int status = 0;
    rusage usage{};
    const pid_t done = ::wait4(pid, &status, WNOHANG, &usage);
    if (done == pid) {
      out.time = Now();
      out.exited = true;
      out.status = status;
      out.cpu_s = static_cast<double>(usage.ru_utime.tv_sec) +
                  static_cast<double>(usage.ru_utime.tv_usec) * 1e-6 +
                  static_cast<double>(usage.ru_stime.tv_sec) +
                  static_cast<double>(usage.ru_stime.tv_usec) * 1e-6;
      out.maxrss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
      break;
    }
    if (done < 0 && errno != EINTR) break;
    const double left = deadline - Now();
    if (left <= 0.0) {
      ::kill(pid, SIGKILL);
      ::wait4(pid, &status, 0, nullptr);
      out.time = Now();
      break;
    }
    if (pidfd >= 0) {
      pollfd fd{pidfd, POLLIN, 0};
      ::poll(&fd, 1, static_cast<int>(std::min(left, 1.0) * 1000.0) + 1);
    } else {
      ::usleep(200);
    }
  }
  if (pidfd >= 0) ::close(pidfd);
  return out;
}

// utime + stime of a live process, from /proc/<pid>/stat.
double ProcessCpuSeconds(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string stat((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const size_t close_paren = stat.rfind(')');
  if (close_paren == std::string::npos) return 0.0;
  std::istringstream fields(stat.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // Fields 3..13 precede utime (14) and stime (15).
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(::sysconf(_SC_CLK_TCK));
}

int Connect(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  SetNonBlocking(fd);
  return fd;
}

// Byte stream of one non-blocking socket with a consumed-prefix offset,
// so parsing many small frames never re-copies the buffer.
struct Stream {
  int fd = -1;
  std::string tx;
  std::string rx;
  size_t rx_off = 0;
  uint64_t bytes_sent = 0;
  uint64_t bytes_received = 0;
  bool broken = false;

  bool Flush() {
    size_t off = 0;
    while (off < tx.size()) {
      const ssize_t n =
          ::send(fd, tx.data() + off, tx.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      broken = true;
      break;
    }
    tx.erase(0, off);
    bytes_sent += off;
    return !broken;
  }

  // Appends everything readable; false on EOF or error.
  bool Read() {
    if (rx_off > 0 && rx_off * 2 > rx.size()) {
      rx.erase(0, rx_off);
      rx_off = 0;
    }
    char chunk[65536];
    while (true) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n > 0) {
        rx.append(chunk, static_cast<size_t>(n));
        bytes_received += static_cast<uint64_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      broken = true;
      return false;
    }
  }

  std::string_view Pending() const {
    return std::string_view(rx).substr(rx_off);
  }
};

// Parses one complete HTTP/1.1 response at the front of `buffer`:
// returns its total length (0 = incomplete) and fills status and body.
size_t ParseHttpResponse(std::string_view buffer, int* status,
                         std::string_view* body) {
  const size_t head_end = buffer.find("\r\n\r\n");
  if (head_end == std::string_view::npos) return 0;
  size_t length = 0;
  const size_t marker = buffer.find("Content-Length: ");
  if (marker != std::string_view::npos && marker < head_end) {
    length = static_cast<size_t>(
        std::strtoull(std::string(buffer.substr(marker + 16, 20)).c_str(),
                      nullptr, 10));
  }
  const size_t total = head_end + 4 + length;
  if (buffer.size() < total) return 0;
  *status = buffer.size() > 12
                ? std::atoi(std::string(buffer.substr(9, 3)).c_str())
                : 0;
  *body = buffer.substr(head_end + 4, length);
  return total;
}

class LoadGenerator {
 public:
  LoadGenerator(const ServeSessionConfig& config, ServeSessionResult* result,
              int err_fd)
      : config_(config), result_(result), err_fd_(err_fd) {}

  ~LoadGenerator() {
    if (bin_.fd >= 0) ::close(bin_.fd);
    if (http_.fd >= 0) ::close(http_.fd);
  }

  std::string& stderr_tail() { return stderr_tail_; }

  // Reads server stderr until the listening line; returns the port.
  int AwaitListening(double deadline) {
    while (Now() < deadline) {
      const bool open = DrainStderr();
      const size_t at = stderr_tail_.find("listening on ");
      const size_t colon = stderr_tail_.find(':', at);
      const size_t end = stderr_tail_.find(' ', colon);
      if (at != std::string::npos && end != std::string::npos) {
        return std::atoi(
            stderr_tail_.substr(colon + 1, end - colon - 1).c_str());
      }
      if (!open) return -1;
      pollfd fd{err_fd_, POLLIN, 0};
      ::poll(&fd, 1, 20);
    }
    return -1;
  }

  bool Connect(int port) {
    bin_.fd = e2e::Connect(static_cast<uint16_t>(port));
    http_.fd = e2e::Connect(static_cast<uint16_t>(port));
    return bin_.fd >= 0 && http_.fd >= 0;
  }

  // One synchronous HTTP GET on the monitoring connection (waits out a
  // periodic scrape still in flight first).
  bool Get(const std::string& target, int* status, std::string* body,
           double deadline) {
    while (http_pending_) {
      if (!Pump(deadline, deadline)) return false;
    }
    StartHttp(target);
    http_keep_body_ = true;
    while (http_pending_) {
      if (!Pump(deadline, deadline)) return false;
    }
    *status = http_status_;
    *body = std::move(http_body_);
    return true;
  }

  bool Scrape(FlatJson* metrics, double deadline) {
    int status = 0;
    std::string body;
    if (!Get("/metrics", &status, &body, deadline)) return false;
    return status == 200 && ParseFlatJson(body, metrics);
  }

  // With a CPU of its own, the generator polls without sleeping during
  // open-loop phases: sleeping until each send was due, it woke up to
  // 4.6 ms late on a shared 4-vCPU host, and late sends count against the
  // server's latency.
  void set_spin_when_open(bool spin) { spin_when_open_ = spin; }

  bool RunPhase(const PhasePlan& plan, PhaseResult* out) {
    out->name = plan.name;
    phase_ = out;
    const bool open = plan.kind == PhaseKind::kOpenLoop;
    spinning_ = open && spin_when_open_;
    const double start = Now();
    const double span_s =
        open && !plan.schedule_ms.empty() ? plan.schedule_ms.back() / 1e3 : 0;
    const double deadline = start + span_s + kPhaseDeadlineS;
    const double interval = config_.scrape_every_ms / 1e3;
    double next_scrape = interval > 0 ? start + interval : kInf;
    size_t next = 0;
    while (true) {
      double now = Now();
      if (open) {
        while (next < plan.count &&
               start + plan.schedule_ms[next] / 1e3 <= now) {
          const double due = start + plan.schedule_ms[next] / 1e3;
          Send(plan.first + next, due);
          out->late_ms.push_back((Now() - due) * 1e3);
          ++next;
        }
      } else {
        while (next < plan.count && inflight_.size() < kWindow) {
          Send(plan.first + next, now);
          ++next;
        }
      }
      now = Now();
      if (now >= next_scrape) {
        if (!http_pending_) StartHttp("/metrics");
        next_scrape += interval;
      }
      if (bin_.broken || http_.broken) break;
      if (next == plan.count && inflight_.empty()) break;
      double wake = deadline;
      if (open && next < plan.count) {
        wake = std::min(wake, start + plan.schedule_ms[next] / 1e3);
      }
      wake = std::min(wake, next_scrape);
      if (now > deadline || !Pump(wake, deadline)) break;
    }
    out->unanswered += inflight_.size();
    out->errors += bin_.broken ? 1 : 0;
    inflight_.clear();
    out->wall_s = Now() - start;
    phase_ = nullptr;
    spinning_ = false;
    return out->unanswered == 0 && !bin_.broken && !http_.broken;
  }

  // Reads stderr into the tail buffer; false once the pipe hit EOF.
  bool DrainStderr() {
    char chunk[4096];
    while (true) {
      const ssize_t n = ::read(err_fd_, chunk, sizeof(chunk));
      if (n > 0) {
        stderr_tail_.append(chunk, static_cast<size_t>(n));
        if (stderr_tail_.size() > 2 * kStderrTail) {
          stderr_tail_.erase(0, stderr_tail_.size() - kStderrTail);
        }
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

  void CloseSockets() {
    result_->screen_bytes =
        static_cast<double>(bin_.bytes_sent + bin_.bytes_received);
    ::close(bin_.fd);
    ::close(http_.fd);
    bin_.fd = http_.fd = -1;
  }

 private:
  struct InFlight {
    size_t index = 0;
    double scheduled = 0.0;
    uint64_t end_offset = 0;  // cumulative byte offset of the frame's end
  };

  void Send(size_t index, double scheduled) {
    bin_.tx += config_.frames[index];
    bytes_queued_ += config_.frames[index].size();
    inflight_.push_back({index, scheduled, bytes_queued_});
    ++phase_->sent;
    bin_.Flush();
    size_t backlog = 0;
    for (auto it = inflight_.rbegin();
         it != inflight_.rend() && it->end_offset > bin_.bytes_sent; ++it) {
      ++backlog;
    }
    phase_->backlog_max = std::max(phase_->backlog_max, backlog);
  }

  void StartHttp(const std::string& target) {
    http_.tx += "GET " + target + " HTTP/1.1\r\nHost: bench\r\n\r\n";
    http_.Flush();
    http_pending_ = true;
    http_keep_body_ = false;
    http_is_scrape_ = target == "/metrics";
    http_started_ = Now();
  }

  // Waits for socket activity until `wake` and handles it. False when a
  // connection failed or `deadline` passed with a request outstanding.
  bool Pump(double wake, double deadline) {
    pollfd fds[3] = {
        {bin_.fd, static_cast<short>(POLLIN | (bin_.tx.empty() ? 0 : POLLOUT)),
         0},
        {http_.fd,
         static_cast<short>(POLLIN | (http_.tx.empty() ? 0 : POLLOUT)), 0},
        {err_open_ ? err_fd_ : -1, POLLIN, 0}};
    const double wait =
        spinning_ ? 0.0 : std::max(0.0, std::min(wake, deadline) - Now());
    timespec timeout{static_cast<time_t>(wait),
                     static_cast<long>((wait - std::floor(wait)) * 1e9)};
    ::ppoll(fds, 3, &timeout, nullptr);
    if (fds[0].revents & POLLOUT) bin_.Flush();
    if (fds[1].revents & POLLOUT) http_.Flush();
    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      bin_.Read();
      ParseScreenResponses(Now());
    }
    if (fds[1].revents & (POLLIN | POLLHUP | POLLERR)) {
      http_.Read();
      ParseHttp();
    }
    if (fds[2].revents & (POLLIN | POLLHUP)) err_open_ = DrainStderr();
    if (bin_.broken || http_.broken) return false;
    return Now() <= deadline || (inflight_.empty() && !http_pending_);
  }

  void ParseScreenResponses(double received) {
    while (true) {
      Frame frame;
      size_t consumed = 0;
      std::string error;
      const DecodeStatus status =
          DecodeFrame(bin_.Pending(), 64u << 20, &frame, &consumed, &error);
      if (status == DecodeStatus::kNeedMore) return;
      ScreenResponseBody body;
      if (status == DecodeStatus::kProtocolError ||
          frame.type != FrameType::kScreenResponse ||
          !DecodeScreenResponse(frame.payload, &body) || inflight_.empty() ||
          phase_ == nullptr) {
        bin_.broken = true;
        return;
      }
      bin_.rx_off += consumed;
      const InFlight request = inflight_.front();
      inflight_.pop_front();
      switch (body.status) {
        case ScreenStatus::kOk:
          ++phase_->ok;
          phase_->latency_ms.push_back((received - request.scheduled) * 1e3);
          Record(request.index, body);
          break;
        case ScreenStatus::kShed:
          ++phase_->shed;
          break;
        case ScreenStatus::kExpired:
          ++phase_->expired;
          break;
        case ScreenStatus::kInvalid:
          ++phase_->invalid;
          break;
      }
    }
  }

  void Record(size_t index, const ScreenResponseBody& body) {
    for (const auto& [other, score] : body.matches) {
      result_->detections.push_back(
          MakeDetection(config_.case_numbers[index], other, score));
    }
  }

  void ParseHttp() {
    int status = 0;
    std::string_view body;
    const size_t total = ParseHttpResponse(http_.Pending(), &status, &body);
    if (total == 0) return;
    if (!http_pending_) {
      http_.broken = true;
      return;
    }
    if (http_is_scrape_) {
      result_->scrape_ms.push_back((Now() - http_started_) * 1e3);
      result_->scrape_bytes.push_back(static_cast<double>(total));
    }
    http_status_ = status;
    if (http_keep_body_) http_body_ = std::string(body);
    http_.rx_off += total;
    http_pending_ = false;
  }

  const ServeSessionConfig& config_;
  ServeSessionResult* result_;
  int err_fd_;
  bool err_open_ = true;
  std::string stderr_tail_;
  Stream bin_;
  Stream http_;
  std::deque<InFlight> inflight_;
  uint64_t bytes_queued_ = 0;
  PhaseResult* phase_ = nullptr;
  bool spin_when_open_ = false;
  bool spinning_ = false;
  bool http_pending_ = false;
  bool http_keep_body_ = false;
  bool http_is_scrape_ = false;
  double http_started_ = 0.0;
  int http_status_ = 0;
  std::string http_body_;
};

}  // namespace

Detection MakeDetection(const std::string& x, const std::string& y,
                        double score) {
  uint64_t bits = 0;
  std::memcpy(&bits, &score, sizeof(bits));
  return {std::min(x, y), std::max(x, y), bits};
}

uint64_t DigestLines(std::vector<std::string> lines) {
  std::sort(lines.begin(), lines.end());
  lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
  uint64_t h = 1469598103934665603ull;
  for (const std::string& line : lines) {
    for (const char c : line + "\n") {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  return h;
}

uint64_t DigestDetections(const std::vector<Detection>& detections) {
  std::vector<std::string> lines;
  lines.reserve(detections.size());
  for (const auto& [a, b, bits] : detections) {
    lines.push_back(a + "\t" + b + "\t" + std::to_string(bits));
  }
  return DigestLines(std::move(lines));
}

std::string DigestHex(uint64_t digest) {
  char text[17];
  std::snprintf(text, sizeof(text), "%016llx",
                static_cast<unsigned long long>(digest));
  return text;
}

ServeSessionResult RunServeSession(const ServeSessionConfig& config) {
  ServeSessionResult result;
  int err_pipe[2];
  if (::pipe2(err_pipe, O_CLOEXEC) != 0) {
    result.error = "pipe: " + std::string(std::strerror(errno));
    return result;
  }
  const int devnull = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  std::vector<std::string> argv = config.argv;
  argv.push_back("--listen=127.0.0.1:0");
  const CpuSplit cpus;
  const double spawned = Now();
  const pid_t pid = Spawn(argv, devnull, err_pipe[1], cpus.server());
  ::close(err_pipe[1]);
  ::close(devnull);
  SetNonBlocking(err_pipe[0]);

  LoadGenerator generator(config, &result, err_pipe[0]);
  generator.set_spin_when_open(cpus.server() != nullptr);
  const auto fail = [&](const std::string& what) {
    ::kill(pid, SIGKILL);
    WaitFor(pid, Now() + 10.0);
    generator.DrainStderr();
    ::close(err_pipe[0]);
    result.ok = false;
    result.error = what + "; server stderr: " + generator.stderr_tail();
    return result;
  };
  if (pid < 0) return fail("fork failed");

  const int port = generator.AwaitListening(spawned + 120.0);
  if (port <= 0 || !generator.Connect(port)) {
    return fail("server never started listening");
  }
  int status = 0;
  std::string health;
  if (!generator.Get("/healthz", &status, &health, Now() + 30.0) ||
      status != 200 || health.find("\"healthy\"") == std::string::npos) {
    return fail("server not healthy after start-up");
  }
  result.setup_wall_s = Now() - spawned;
  const double cpu_at_healthy = ProcessCpuSeconds(pid);
  result.setup_cpu_s = cpu_at_healthy;
  if (!generator.Scrape(&result.metrics_at_healthy, Now() + 30.0)) {
    return fail("/metrics unreadable");
  }
  for (const PhasePlan& plan : config.phases) {
    result.phases.emplace_back();
    const bool phase_ok = generator.RunPhase(plan, &result.phases.back());
    if (!generator.Scrape(&result.phases.back().metrics, Now() + 30.0)) {
      return fail("/metrics unreadable after phase " + plan.name);
    }
    if (!phase_ok) return fail("phase " + plan.name + " did not complete");
  }
  generator.CloseSockets();
  ::kill(pid, SIGTERM);
  const Exit exit = WaitFor(pid, Now() + 60.0);
  while (generator.DrainStderr()) {
    pollfd fd{err_pipe[0], POLLIN, 0};
    if (::poll(&fd, 1, 1000) <= 0) break;
  }
  ::close(err_pipe[0]);
  if (!exit.exited || !WIFEXITED(exit.status) ||
      WEXITSTATUS(exit.status) != 0) {
    result.error = "server did not shut down cleanly; stderr: " +
                   generator.stderr_tail();
    return result;
  }
  result.cpu_s = exit.cpu_s - cpu_at_healthy;
  result.peak_rss_mb = exit.maxrss_mb;
  result.ok = true;
  return result;
}

JobResult RunJob(const std::vector<std::string>& argv,
                 const std::string& log_prefix, double deadline_s) {
  JobResult result;
  const std::string out_path = log_prefix + ".stdout";
  const std::string err_path = log_prefix + ".stderr";
  const int out_fd =
      ::open(out_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  const int err_fd =
      ::open(err_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (out_fd < 0 || err_fd < 0) {
    result.error = "cannot create " + log_prefix + ".std{out,err}";
    if (out_fd >= 0) ::close(out_fd);
    if (err_fd >= 0) ::close(err_fd);
    return result;
  }
  const double spawned = Now();
  const pid_t pid = Spawn(argv, out_fd, err_fd);
  ::close(out_fd);
  ::close(err_fd);
  if (pid < 0) {
    result.error = "fork failed";
    return result;
  }
  const Exit exit = WaitFor(pid, spawned + deadline_s);
  result.wall_s = exit.time - spawned;
  result.cpu_s = exit.cpu_s;
  result.peak_rss_mb = exit.maxrss_mb;
  const int exit_status =
      exit.exited && WIFEXITED(exit.status) ? WEXITSTATUS(exit.status) : -1;
  result.ok = exit_status == 0;
  if (!result.ok) {
    std::ifstream err(err_path);
    const std::string text((std::istreambuf_iterator<char>(err)),
                           std::istreambuf_iterator<char>());
    result.error = argv[0] + " exited with status " +
                   std::to_string(exit_status) + ": " +
                   text.substr(text.size() > kStderrTail
                                   ? text.size() - kStderrTail
                                   : 0);
  }
  return result;
}

}  // namespace adrdedup::bench::e2e
