#include "serve/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>

namespace relkit::serve {

namespace {

using Clock = std::chrono::steady_clock;

int remaining_ms(Clock::time_point give_up) {
  const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
      give_up - Clock::now());
  return left.count() <= 0 ? 0 : static_cast<int>(left.count());
}

ClientResponse fail(const std::string& what) {
  ClientResponse r;
  r.error = what + ": " + std::strerror(errno);
  return r;
}

/// One full request/response exchange; the server closes after answering,
/// so "read until EOF" delimits the response.
ClientResponse exchange(const std::string& host, int port,
                        const std::string& request, int timeout_ms) {
  const Clock::time_point give_up =
      Clock::now() + std::chrono::milliseconds(timeout_ms);
  const int fd = tcp_connect(host, port, timeout_ms);
  if (fd < 0) return fail("connect");
  if (!tcp_send(fd, request)) {
    ClientResponse r = fail("send");
    tcp_close(fd);
    return r;
  }
  std::string raw;
  char buf[4096];
  for (;;) {
    struct pollfd pfd {fd, POLLIN, 0};
    const int left = remaining_ms(give_up);
    if (left <= 0 || ::poll(&pfd, 1, left) <= 0) {
      tcp_close(fd);
      ClientResponse r;
      r.error = "timed out waiting for response";
      return r;
    }
    const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n > 0) {
      raw.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    break;  // EOF (or reset after data): response complete
  }
  tcp_close(fd);

  ClientResponse r;
  const std::size_t line_end = raw.find("\r\n");
  const std::size_t headers_end = raw.find("\r\n\r\n");
  if (line_end == std::string::npos || headers_end == std::string::npos ||
      raw.compare(0, 9, "HTTP/1.1 ") != 0) {
    r.error = "malformed response";
    return r;
  }
  r.status = std::atoi(raw.c_str() + 9);
  r.head = raw.substr(0, headers_end + 2);
  r.body = raw.substr(headers_end + 4);
  r.ok = true;
  return r;
}

char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}

}  // namespace

std::string ClientResponse::header(const std::string& name) const {
  std::size_t pos = head.find("\r\n");  // skip the status line
  while (pos != std::string::npos && pos + 2 < head.size()) {
    pos += 2;
    const std::size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t colon = head.find(':', pos);
    if (colon != std::string::npos && colon < eol &&
        colon - pos == name.size()) {
      bool match = true;
      for (std::size_t i = 0; i < name.size(); ++i) {
        if (ascii_lower(head[pos + i]) != ascii_lower(name[i])) {
          match = false;
          break;
        }
      }
      if (match) {
        std::size_t begin = colon + 1;
        while (begin < eol && (head[begin] == ' ' || head[begin] == '\t')) {
          ++begin;
        }
        return head.substr(begin, eol - begin);
      }
    }
    pos = eol;
  }
  return {};
}

int tcp_connect(const std::string& host, int port, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  struct timeval tv {timeout_ms / 1000, (timeout_ms % 1000) * 1000};
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool tcp_send(int fd, const std::string& data) {
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n > 0) {
      sent += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

void tcp_close(int fd) {
  if (fd >= 0) ::close(fd);
}

ClientResponse http_get(const std::string& host, int port,
                        const std::string& target, int timeout_ms,
                        const std::string& extra_headers) {
  const std::string request = "GET " + target +
                              " HTTP/1.1\r\nHost: relkit\r\n" +
                              extra_headers + "Connection: close\r\n\r\n";
  return exchange(host, port, request, timeout_ms);
}

ClientResponse http_post(const std::string& host, int port,
                         const std::string& target, const std::string& body,
                         int timeout_ms, const std::string& extra_headers) {
  const std::string request =
      "POST " + target + " HTTP/1.1\r\nHost: relkit\r\n" +
      "Content-Type: application/json\r\nContent-Length: " +
      std::to_string(body.size()) + "\r\n" + extra_headers +
      "Connection: close\r\n\r\n" + body;
  return exchange(host, port, request, timeout_ms);
}

}  // namespace relkit::serve
