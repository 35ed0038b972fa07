// dtxd rounds: three daemon processes on loopback TCP with FileStore dirs,
// seeded through --docs/--load, driven by this process over one
// non-blocking connection per daemon, closed loop or open loop. Latency
// runs from each transaction's send time (open loop: its scheduled send
// time) to the arrival of its reply frame.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <thread>

#include "bench.hpp"
#include "net/codec.hpp"
#include "net/network.hpp"
#include "storage/file_store.hpp"
#include "txn/transaction.hpp"

namespace dtxbench {
namespace {

namespace fs = std::filesystem;

std::uint16_t reserve_port(std::vector<int>& held) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  ::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len);
  held.push_back(fd);
  return ntohs(addr.sin_port);
}

/// One client connection to one daemon.
struct Conn {
  int fd = -1;
  dtx::net::SiteId client_id = 0;
  dtx::net::codec::FrameReader reader;
  std::string out;  ///< bytes not yet accepted by the kernel
  bool greeted = false;
};

int dial(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

/// Writes as much of `conn.out` as the socket takes. False on a dead peer.
bool flush(Conn& conn) {
  while (!conn.out.empty()) {
    const ssize_t n = ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
    if (n > 0) {
      conn.out.erase(0, static_cast<std::size_t>(n));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
  return true;
}

/// Reads what is available; false on EOF or error.
bool drain(Conn& conn) {
  char buffer[65536];
  for (;;) {
    const ssize_t n = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (n > 0) {
      conn.reader.feed(std::string_view(buffer, static_cast<std::size_t>(n)));
    } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    } else if (n < 0 && errno == EINTR) {
      continue;
    } else {
      return false;
    }
  }
}

class DaemonSet {
 public:
  DaemonSet(std::string dtxd, fs::path root, std::size_t count)
      : dtxd_(std::move(dtxd)), root_(std::move(root)), pids_(count, -1) {
    std::vector<int> held;
    for (std::size_t i = 0; i < count; ++i) ports_.push_back(reserve_port(held));
    for (int fd : held) ::close(fd);
  }
  ~DaemonSet() {
    for (int& pid : pids_) {
      if (pid > 0) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        pid = -1;
      }
    }
  }
  DaemonSet(const DaemonSet&) = delete;
  DaemonSet& operator=(const DaemonSet&) = delete;

  [[nodiscard]] std::uint16_t port(std::size_t site) const { return ports_[site]; }
  [[nodiscard]] fs::path store_dir(std::size_t site) const {
    return root_ / ("site" + std::to_string(site));
  }
  [[nodiscard]] fs::path log_path(std::size_t site) const {
    return root_ / ("site" + std::to_string(site) + ".log");
  }
  [[nodiscard]] int pid(std::size_t site) const { return pids_[site]; }

  /// Topology and placement only: every engine knob stays at its default.
  bool spawn(std::size_t site, const std::string& docs, const std::string& loads) {
    std::string peers;
    for (std::size_t peer = 0; peer < ports_.size(); ++peer) {
      if (peer == site) continue;
      if (!peers.empty()) peers += ',';
      peers += std::to_string(peer) + "=127.0.0.1:" + std::to_string(ports_[peer]);
    }
    std::vector<std::string> args = {
        dtxd_,
        "--site=" + std::to_string(site),
        "--listen=127.0.0.1:" + std::to_string(ports_[site]),
        "--peers=" + peers,
        "--store=" + store_dir(site).string(),
        "--docs=" + docs,
        "--load=" + loads,
    };
    const std::string log = log_path(site).string();
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive dtxbench
      const int fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
        ::close(fd);
      }
      std::vector<char*> argv;
      for (std::string& arg : args) argv.push_back(arg.data());
      argv.push_back(nullptr);
      ::execv(argv[0], argv.data());
      _exit(127);
    }
    pids_[site] = pid;
    return true;
  }

  /// SIGTERM everyone, bounded wait; false when a daemon had to be killed
  /// or exited non-zero.
  bool terminate() {
    bool clean = true;
    for (int pid : pids_) {
      if (pid > 0) ::kill(pid, SIGTERM);
    }
    for (int& pid : pids_) {
      if (pid <= 0) continue;
      int status = 0;
      bool exited = false;
      for (int spin = 0; spin < 400 && !exited; ++spin) {
        if (::waitpid(pid, &status, WNOHANG) == pid) {
          exited = true;
        } else {
          std::this_thread::sleep_for(std::chrono::milliseconds(25));
        }
      }
      if (!exited) {
        ::kill(pid, SIGKILL);
        ::waitpid(pid, nullptr, 0);
        clean = false;
      } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        clean = false;
      }
      pid = -1;
    }
    return clean;
  }

 private:
  std::string dtxd_;
  fs::path root_;
  std::vector<std::uint16_t> ports_;
  std::vector<int> pids_;
};

/// Pulls every complete frame out of `conn`; calls on_message for each.
template <typename Fn>
bool pump(Conn& conn, Fn&& on_message) {
  if (!drain(conn)) return false;
  for (;;) {
    auto next = conn.reader.next();
    if (!next) return false;
    if (!next.value().has_value()) return true;
    on_message(*next.value());
  }
}

/// Connects to every daemon and waits for each one's Hello (the boot
/// span: spawn until all answer).
bool connect_all(DaemonSet& daemons, std::vector<Conn>& conns,
                 Clock::time_point deadline) {
  for (std::size_t site = 0; site < conns.size(); ++site) {
    Conn& conn = conns[site];
    conn.client_id = dtx::net::kClientIdBase |
                     ((static_cast<std::uint32_t>(::getpid()) << 4 |
                       static_cast<std::uint32_t>(site)) & 0x7fff'ffffu);
    while (conn.fd < 0) {
      if (Clock::now() > deadline) return false;
      conn.fd = dial(daemons.port(site));
      if (conn.fd < 0) std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    dtx::net::Message hello;
    hello.from = conn.client_id;
    hello.to = static_cast<dtx::net::SiteId>(site);
    hello.payload = dtx::net::Hello{conn.client_id, dtx::net::codec::kProtocolVersion};
    conn.out = dtx::net::codec::encode(hello);
  }
  for (Conn& conn : conns) {
    while (!conn.greeted) {
      if (Clock::now() > deadline || !flush(conn)) return false;
      pollfd pfd{conn.fd, POLLIN, 0};
      ::poll(&pfd, 1, 5);
      if (!pump(conn, [&](dtx::net::Message& m) {
            if (std::holds_alternative<dtx::net::Hello>(m.payload)) conn.greeted = true;
          })) {
        return false;
      }
    }
  }
  return true;
}

/// Sums "key=value" fields of the daemons' shutdown log lines.
std::map<std::string, double> shutdown_counters(const DaemonSet& daemons,
                                                std::size_t count,
                                                std::size_t& lines) {
  std::map<std::string, double> sums;
  lines = 0;
  for (std::size_t site = 0; site < count; ++site) {
    std::ifstream in(daemons.log_path(site));
    std::string line;
    while (std::getline(in, line)) {
      const auto at = line.find(" tcp: ");
      if (at == std::string::npos) continue;
      ++lines;
      std::istringstream fields(line.substr(at + 6));
      std::string field;
      while (fields >> field) {
        const auto eq = field.find('=');
        if (eq == std::string::npos) continue;
        try {
          sums[field.substr(0, eq)] += std::stod(field.substr(eq + 1));
        } catch (const std::exception&) {
        }
      }
    }
  }
  return sums;
}

/// Sends one transaction on `conn` and waits (bounded) for its reply.
std::optional<dtx::net::ClientReply> round_trip(Conn& conn, dtx::net::SiteId site,
                                                std::uint64_t seq,
                                                std::vector<dtx::txn::Operation> ops,
                                                std::chrono::milliseconds timeout) {
  dtx::net::Message submit;
  submit.from = conn.client_id;
  submit.to = site;
  submit.payload = dtx::net::ClientSubmit{seq, std::move(ops)};
  dtx::net::codec::encode(submit, conn.out);
  std::optional<dtx::net::ClientReply> answer;
  const Clock::time_point deadline = Clock::now() + timeout;
  while (!answer && Clock::now() < deadline && flush(conn)) {
    pollfd pfd{conn.fd, POLLIN, 0};
    ::poll(&pfd, 1, 10);
    if (!pump(conn, [&](dtx::net::Message& m) {
          auto* reply = std::get_if<dtx::net::ClientReply>(&m.payload);
          if (reply != nullptr && reply->seq == seq) answer = std::move(*reply);
        })) {
      break;
    }
  }
  return answer;
}

/// First sequence numbers of the warm-up and probe transactions; the
/// measured transactions use 0..n-1.
constexpr std::uint64_t kWarmupSeqBase = std::uint64_t{1} << 40;
constexpr std::uint64_t kProbeSeqBase = std::uint64_t{1} << 41;

/// Sends `txns` (seq = seq_base + index) to daemon index % conns.size():
/// open loop at `rate` per second, or closed loop with kInFlight
/// outstanding when rate is 0. Replies are stamped when their frame is
/// read. Records latencies, outcomes and spans when `result` / `tracer` are
/// given. False when a connection broke or replies went missing.
bool drive(std::vector<Conn>& conns, std::vector<TxnInput>& txns, std::uint64_t seq_base,
           double rate, Tracer* tracer, RoundResult* result,
           std::string& error) {
  RoundResult scratch;
  RoundResult& out = result != nullptr ? *result : scratch;
  const std::size_t n = txns.size();
  std::vector<Clock::time_point> due(n);
  std::vector<bool> replied(n, false);
  const bool closed = rate <= 0.0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(closed ? 0 : 20);
  for (std::size_t i = 0; i < n && !closed; ++i) {
    due[i] = start + std::chrono::nanoseconds(
                         static_cast<std::int64_t>(1e9 * static_cast<double>(i) / rate));
  }
  std::size_t next = 0;
  std::size_t outstanding = 0;
  double blocked_s = 0.0;
  const Clock::time_point give_up =
      (due.empty() || closed ? start : due.back()) + std::chrono::seconds(60);
  std::vector<pollfd> pfds(conns.size());
  double victims = 0.0;
  double wait_episodes = 0.0;
  const auto on_reply = [&](dtx::net::Message& m, Clock::time_point at) {
    auto* reply = std::get_if<dtx::net::ClientReply>(&m.payload);
    if (reply == nullptr || reply->seq < seq_base || reply->seq - seq_base >= n ||
        replied[reply->seq - seq_base]) {
      return;
    }
    const std::size_t i = reply->seq - seq_base;
    replied[i] = true;
    --outstanding;
    (txns[i].update ? out.latency.update_ms : out.latency.read_ms)
        .push_back(ms_between(due[i], at));
    victims += reply->deadlock_victim ? 1 : 0;
    wait_episodes += reply->wait_episodes;
    const auto state = static_cast<dtx::txn::TxnState>(reply->state);
    if (!reply->accepted || state == dtx::txn::TxnState::kFailed) {
      ++out.failed;
    } else if (state == dtx::txn::TxnState::kCommitted) {
      ++out.committed;
    } else {
      ++out.aborted;
    }
    if (tracer != nullptr) tracer->add("txn", due[i], at, 0, reply->txn);
  };

  bool broken = false;
  while ((next < n || outstanding > 0) && !broken && error.empty()) {
    Clock::time_point now = Clock::now();
    if (now > give_up) {
      error = std::to_string(outstanding) + " replies missing after 60 s";
    }
    // Closed loop (rate 0): the next transaction goes out as soon as fewer
    // than kInFlight are outstanding.
    while (next < n && (closed ? outstanding < kInFlight : due[next] <= now)) {
      if (closed) due[next] = now;
      Conn& conn = conns[next % conns.size()];
      dtx::net::Message submit;
      submit.from = conn.client_id;
      submit.to = static_cast<dtx::net::SiteId>(next % conns.size());
      submit.payload = dtx::net::ClientSubmit{seq_base + next, std::move(txns[next].ops)};
      const Clock::time_point encode_start = Clock::now();
      dtx::net::codec::encode(submit, conn.out);
      if (!flush(conn)) broken = true;
      const Clock::time_point sent = Clock::now();
      if (tracer != nullptr) tracer->add("client.submit", encode_start, sent, 0, seq_base + next);
      out.lag_ms.push_back(ms_between(due[next], encode_start));
      ++out.submitted;
      ++outstanding;
      ++next;
      now = sent;
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      pfds[i] = pollfd{conns[i].fd,
                       static_cast<short>(POLLIN | (conns[i].out.empty() ? 0 : POLLOUT)), 0};
    }
    timespec timeout{0, 50'000'000};
    if (next < n && !closed) {
      const auto wait = std::max<std::int64_t>(
          0, std::chrono::duration_cast<std::chrono::nanoseconds>(due[next] - Clock::now()).count());
      timeout = timespec{static_cast<time_t>(wait / 1'000'000'000), static_cast<long>(wait % 1'000'000'000)};
    }
    const Clock::time_point wait_start = Clock::now();
    const int ready = ::ppoll(pfds.data(), pfds.size(), &timeout, nullptr);
    const Clock::time_point woke = Clock::now();
    blocked_s += std::chrono::duration<double>(woke - wait_start).count();
    if (ready <= 0) continue;
    for (std::size_t i = 0; i < conns.size(); ++i) {
      if (pfds[i].revents & POLLOUT) {
        if (!flush(conns[i])) broken = true;
      }
      if (pfds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!pump(conns[i], [&](dtx::net::Message& m) { on_reply(m, woke); })) {
          broken = true;
        }
      }
    }
  }
  if (broken) error = "a daemon connection broke";
  const Clock::time_point window_end = Clock::now();
  const double window = std::chrono::duration<double>(window_end - start).count();
  out.window_s += window;
  out.busy_s += window - blocked_s;
  out.metrics["wfg.deadlock_aborts"] = victims;
  out.metrics["wfg.wait_episodes_per_txn"] =
      n > 0 ? wait_episodes / static_cast<double>(n) : 0.0;
  return !broken && error.empty();
}

}  // namespace

void run_daemon_round(const WorkloadSpec& spec, RoundInputs inputs,
                      const std::string& dtxd_path, const std::string& workdir,
                      Tracer& tracer, bool traced, RoundResult& result) {
  const fs::path root = fs::path(workdir) / "daemons";
  std::error_code ec;
  fs::remove_all(root, ec);
  fs::create_directories(root);
  const auto fail = [&](const std::string& what) {
    result.correct = false;
    result.errors.push_back(what);
  };

  // Load: the seed files dtxd stores on first boot.
  const Clock::time_point setup_start = Clock::now();
  std::string docs;
  std::string loads;
  for (const auto& placement : inputs.placements) {
    const auto fragment = std::find_if(
        inputs.fragments.begin(), inputs.fragments.end(),
        [&](const auto& f) { return f.doc_name == placement.doc; });
    const fs::path seed = root / (placement.doc + ".xml");
    std::ofstream(seed) << fragment->xml;
    if (!docs.empty()) {
      docs += ';';
      loads += ';';
    }
    docs += placement.doc + ":";
    for (std::size_t i = 0; i < placement.sites.size(); ++i) {
      docs += (i ? "," : "") + std::to_string(placement.sites[i]);
    }
    loads += placement.doc + ":" + seed.string();
  }
  const Clock::time_point loaded = Clock::now();
  tracer.add("dtx.load", setup_start, loaded, 0, 0);

  // The probe: a copy of the first update of every document. It decides
  // when boot is over and, after the load, that no locks dangle.
  std::vector<dtx::txn::Operation> probe;
  {
    std::set<std::string> covered;
    for (const TxnInput& txn : inputs.txns) {
      for (const auto& op : txn.ops) {
        if (op.is_update() && covered.insert(op.doc).second) probe.push_back(op);
      }
    }
  }

  DaemonSet daemons(dtxd_path, root, spec.sites);
  for (std::size_t site = 0; site < spec.sites; ++site) {
    if (!daemons.spawn(site, docs, loads)) return fail("fork dtxd failed");
  }
  std::vector<Conn> conns(spec.sites);
  // Boot ends when every daemon answers its Hello and then coordinates a
  // distributed update (one update per document, so 2PC crosses every
  // daemon-to-daemon link) that commits within a second. TcpNetwork drops
  // a message for a peer it has no connection to yet, and the transaction
  // that sent it waits out the response timeout; that is boot, not load.
  bool up = connect_all(daemons, conns, Clock::now() + std::chrono::seconds(30));
  std::uint64_t probe_seq = kProbeSeqBase;
  for (std::size_t site = 0; up && !probe.empty() && site < spec.sites; ++site) {
    bool ready = false;
    for (int attempt = 0; attempt < 4 && !ready; ++attempt) {
      const Clock::time_point sent = Clock::now();
      const auto reply = round_trip(conns[site], static_cast<dtx::net::SiteId>(site),
                                    probe_seq++, probe, std::chrono::seconds(30));
      ready = reply.has_value() &&
              static_cast<dtx::txn::TxnState>(reply->state) ==
                  dtx::txn::TxnState::kCommitted &&
              Clock::now() - sent < std::chrono::seconds(1);
    }
    up = ready;
  }
  const Clock::time_point booted = Clock::now();
  tracer.add("dtx.start", loaded, booted, 0, 0);
  result.setup_s += std::chrono::duration<double>(booted - setup_start).count();
  const auto close_all = [&] {
    for (Conn& conn : conns) {
      if (conn.fd >= 0) ::close(conn.fd);
      conn.fd = -1;
    }
  };
  if (!up) {
    close_all();
    daemons.terminate();
    return fail("daemons did not boot and serve within 30 s");
  }

  // Warm-up, counted as set-up: a fresh daemon cluster compiles its first
  // plans and materializes its first snapshots while the first requests
  // arrive, and under open load that cold start can tip into a convoy of
  // deadlock victims that lasts seconds. A closed-loop warm-up cannot build
  // a backlog, so the measured window starts on a warm cluster.
  std::string error;
  bool broken = !drive(conns, inputs.warmup, kWarmupSeqBase, 0.0, nullptr, nullptr, error);
  if (broken) fail("warm-up: " + error);
  const Clock::time_point warmed = Clock::now();
  tracer.add("dtx.warmup", booted, warmed, 0, 0);
  result.setup_s += std::chrono::duration<double>(warmed - booted).count();

  // The measured window: transaction i goes to daemon i % sites, closed
  // loop with kInFlight outstanding, or due at start + i / rate when the
  // round runs open loop.
  if (!broken) {
    broken = !drive(conns, inputs.txns, 0, spec.rate_per_s, traced ? &tracer : nullptr,
                    &result, error);
    if (broken) fail("measured window: " + error);
  }

  // No dangling locks: one probe transaction re-running an update on every
  // document must commit promptly (a leaked lock would park it).
  if (!broken && !probe.empty()) {
    const auto reply = round_trip(conns[0], 0, probe_seq, probe, std::chrono::seconds(10));
    if (!reply) {
      fail("lock probe got no reply within 10 s (dangling locks?)");
    } else if (static_cast<dtx::txn::TxnState>(reply->state) !=
               dtx::txn::TxnState::kCommitted) {
      fail("lock probe did not commit: " + reply->detail);
    }
  }
  close_all();

  double rss = 0.0;
  for (std::size_t site = 0; site < spec.sites; ++site) rss += peak_rss_mb(daemons.pid(site));
  result.peak_rss_mb = rss;
  if (!daemons.terminate()) fail("a daemon did not shut down cleanly");

  std::size_t lines = 0;
  auto counters = shutdown_counters(daemons, spec.sites, lines);
  if (lines != spec.sites) {
    fail("expected a shutdown line from each daemon, found " + std::to_string(lines));
  }
  // Reconnects and disconnects are expected while the daemons stop one by
  // one; a rejected frame never is.
  if (counters["frames_rejected"] != 0) {
    fail("daemons rejected " + std::to_string(counters["frames_rejected"]) + " frames");
  }

  std::vector<std::unique_ptr<dtx::storage::FileStore>> stores;
  for (std::size_t site = 0; site < spec.sites; ++site) {
    stores.push_back(std::make_unique<dtx::storage::FileStore>(daemons.store_dir(site)));
  }
  check_replicas(inputs, [&](dtx::net::SiteId site) -> dtx::storage::StorageBackend& {
    return *stores.at(site);
  }, result);

  // Remote stats do not exist yet: the client sees only what a ClientReply
  // carries. The other engine counters of the in-process workloads read 0.
  for (const char* unobserved :
       {"query.plan_hit_rate", "lock.acq_per_txn", "lock.conflicts_per_acq",
        "wfg.cycles_found", "snapshot.chain_hit_ratio", "snapshot.materializes",
        "snapshot.clones", "snapshot.cut_retries", "snapshot.chain_bytes_peak",
        "dtx.remote_ops_per_txn", "dtx.snapshot_txn_frac", "dtx.commit_resends",
        "net.msgs_per_txn", "net.bytes_per_txn"}) {
    result.metrics[unobserved] = 0.0;
  }
  fs::remove_all(root, ec);
}

}  // namespace dtxbench
