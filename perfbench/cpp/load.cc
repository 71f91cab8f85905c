// pbtool load: one-thread load client over loopback TCP.
//
//   pbtool load --port P --schedule IN --out OUT [--connections 4]
//               [--window W] [--drain-timeout-ms 30000]
//
// IN holds one "due_us<TAB>request-json" line per request, due times
// relative to the start. Requests go round-robin over the connections; each
// is written once it is due. --window W > 0 caps the unanswered requests per
// connection (a closed loop: a request then waits for a free slot); 0 is an
// open loop that sends on schedule no matter how far behind the server is.
// The server answers each connection in request order, so responses are
// matched to requests FIFO per connection.
//
// OUT gets one "due_us<TAB>sent_us<TAB>answered_us<TAB>response" line per
// request in schedule order (answered_us = -1 when no answer came).
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <deque>
#include <fstream>
#include <string>
#include <vector>

#include "pbtool.h"
#include "serve/net_util.h"

namespace perfbench {

namespace {

struct Request {
  long long due_us = 0;
  long long sent_us = -1;
  long long answered_us = -1;
  std::string line;
  std::string response;
};

struct Connection {
  int fd = -1;
  std::string out;
  size_t out_offset = 0;
  std::string in;
  std::deque<size_t> inflight;
  bool broken = false;
};

}  // namespace

int RunLoad(const Args& args) {
  const int port = static_cast<int>(args.Int("port", 0));
  const std::string schedule_path = args.Str("schedule", "");
  const std::string out_path = args.Str("out", "");
  const size_t num_connections =
      static_cast<size_t>(std::max(1LL, args.Int("connections", 4)));
  const size_t window = static_cast<size_t>(args.Int("window", 0));
  const long long drain_timeout_us = args.Int("drain-timeout-ms", 30000) * 1000;
  if (port <= 0 || schedule_path.empty() || out_path.empty()) {
    std::fprintf(stderr, "pbtool load needs --port, --schedule and --out\n");
    return 2;
  }

  std::vector<Request> requests;
  {
    std::ifstream in(schedule_path);
    std::string line;
    while (std::getline(in, line)) {
      const size_t tab = line.find('\t');
      if (tab == std::string::npos) continue;
      Request request;
      request.due_us = std::atoll(line.substr(0, tab).c_str());
      request.line = line.substr(tab + 1) + "\n";
      requests.push_back(std::move(request));
    }
  }

  // Wake-ups land within microseconds of the due time instead of the
  // default 50 us timer slack.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);

  const int one = 1;
  std::vector<Connection> connections(num_connections);
  for (Connection& connection : connections) {
    connection.fd = tailormatch::serve::TcpConnectLoopback(port);
    if (connection.fd < 0) {
      std::perror("pbtool load: connect");
      return 1;
    }
    setsockopt(connection.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    fcntl(connection.fd, F_SETFL, fcntl(connection.fd, F_GETFL) | O_NONBLOCK);
  }

  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const auto now_us = [&start] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               Clock::now() - start)
        .count();
  };

  size_t next = 0;
  size_t answered = 0;
  long long last_progress_us = 0;
  std::vector<pollfd> fds(num_connections);
  char buffer[1 << 16];
  while (answered < requests.size()) {
    long long now = now_us();
    // Hand every due request to a connection with a free slot.
    while (next < requests.size() && requests[next].due_us <= now) {
      Connection* target = nullptr;
      for (size_t k = 0; k < num_connections; ++k) {
        Connection& candidate = connections[(next + k) % num_connections];
        if (window == 0 || candidate.inflight.size() < window) {
          target = &candidate;
          break;
        }
      }
      if (target == nullptr) break;
      target->out += requests[next].line;
      target->inflight.push_back(next);
      requests[next].sent_us = now;
      ++next;
    }
    for (Connection& connection : connections) {
      while (!connection.broken &&
             connection.out_offset < connection.out.size()) {
        const ssize_t n = ::send(
            connection.fd, connection.out.data() + connection.out_offset,
            connection.out.size() - connection.out_offset, MSG_NOSIGNAL);
        if (n > 0) {
          connection.out_offset += static_cast<size_t>(n);
        } else if (n < 0 && errno == EINTR) {
          continue;
        } else {
          connection.broken = !(n < 0 && errno == EAGAIN);
          break;
        }
      }
      if (connection.out_offset == connection.out.size()) {
        connection.out.clear();
        connection.out_offset = 0;
      }
    }

    // A due request still here is waiting for a window slot, i.e. for a read.
    long long wait_us = 1000;
    if (next < requests.size() && requests[next].due_us > now) {
      wait_us = std::max(0LL, requests[next].due_us - now);
      if (wait_us > 1000) wait_us = 1000;
    }
    for (size_t k = 0; k < num_connections; ++k) {
      fds[k].fd = connections[k].broken ? -1 : connections[k].fd;
      fds[k].events = POLLIN;
      if (!connections[k].out.empty()) fds[k].events |= POLLOUT;
      fds[k].revents = 0;
    }
    timespec timeout{static_cast<time_t>(wait_us / 1000000),
                     static_cast<long>((wait_us % 1000000) * 1000)};
    const int ready = ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
    if (ready > 0) {
      now = now_us();
      for (size_t k = 0; k < num_connections; ++k) {
        if ((fds[k].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
        Connection& connection = connections[k];
        for (;;) {
          const ssize_t n = ::recv(connection.fd, buffer, sizeof(buffer), 0);
          // Acknowledge at once: the server does not set TCP_NODELAY, so a
          // delayed ACK here would hold its next reply for up to 40 ms.
          setsockopt(connection.fd, IPPROTO_TCP, TCP_QUICKACK, &one,
                     sizeof(one));
          if (n > 0) {
            connection.in.append(buffer, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && errno == EINTR) continue;
          if (n == 0 || errno != EAGAIN) connection.broken = true;
          break;
        }
        size_t begin = 0;
        for (size_t end; (end = connection.in.find('\n', begin)) !=
                         std::string::npos;
             begin = end + 1) {
          if (connection.inflight.empty()) break;
          Request& request = requests[connection.inflight.front()];
          connection.inflight.pop_front();
          request.response = connection.in.substr(begin, end - begin);
          request.answered_us = now;
          ++answered;
          last_progress_us = now;
        }
        connection.in.erase(0, begin);
      }
    }
    bool all_broken = true;
    for (const Connection& connection : connections) {
      all_broken = all_broken && connection.broken;
    }
    if (all_broken) break;
    if (next == requests.size() &&
        now_us() - std::max(last_progress_us, requests.empty()
                                                  ? 0LL
                                                  : requests.back().sent_us) >
            drain_timeout_us) {
      break;
    }
  }
  for (Connection& connection : connections) ::close(connection.fd);

  std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
  for (const Request& request : requests) {
    out << request.due_us << '\t' << request.sent_us << '\t'
        << request.answered_us << '\t' << request.response << '\n';
  }
  return out.good() ? 0 : 1;
}

}  // namespace perfbench
