#include "http_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>

namespace e2e {
namespace {

uint64_t Fnv(std::string_view s, uint64_t h) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string_view ValueAfter(std::string_view text, std::string_view key) {
  size_t at = text.find(key);
  if (at == std::string_view::npos) return {};
  return text.substr(at + key.size());
}

uint64_t UintAfter(std::string_view text, std::string_view key) {
  std::string_view v = ValueAfter(text, key);
  uint64_t n = 0;
  for (char c : v) {
    if (c < '0' || c > '9') break;
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  return n;
}

double DoubleAfter(std::string_view text, std::string_view key) {
  std::string_view v = ValueAfter(text, key);
  if (v.empty()) return 0;
  std::string s(v.substr(0, 32));
  return std::strtod(s.c_str(), nullptr);
}

bool HeaderHas(std::string_view head, std::string_view name,
               std::string_view value) {
  // Case-insensitive "name: value" search over the response head.
  auto lower = [](std::string_view s) {
    std::string out(s);
    for (char& c : out) c = static_cast<char>(std::tolower(c));
    return out;
  };
  std::string h = lower(head);
  std::string needle = lower(name) + ": " + lower(value);
  return h.find(needle) != std::string::npos;
}

}  // namespace

uint64_t TupleHash(std::string_view source, std::string_view target) {
  uint64_t h = Fnv(source, 1469598103934665603ull);
  h = Fnv("\x1f", h);
  h = Fnv(target, h);
  // Finalize so the wrapping sum over a set does not cancel structure.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  return h;
}

HttpConnection::~HttpConnection() { Close(); }

bool HttpConnection::Connect(uint16_t port) {
  Close();
  port_ = port;
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  timeval tv{10, 0};
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Close();
    return false;
  }
  ++connects_;
  uses_ = 0;
  buf_.clear();
  return true;
}

void HttpConnection::Close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool HttpConnection::Fill(Clock::time_point* when) {
  char tmp[65536];
  for (;;) {
    ssize_t n = ::recv(fd_, tmp, sizeof(tmp), 0);
    if (n > 0) {
      *when = Clock::now();
      buf_.append(tmp, static_cast<size_t>(n));
      return true;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
}

void HttpConnection::ParseLine(std::string_view line, HttpResult* out) {
  if (line.rfind("{\"tuples\"", 0) == 0) {
    ++out->answer_chunks;
    out->answer_bytes += line.size();
    // [["s", "t"], ...]: constants are plain identifiers (no escapes).
    size_t i = line.find('[');
    while (true) {
      size_t open = line.find("[\"", i + 1);
      if (open == std::string_view::npos) break;
      size_t s0 = open + 2;
      size_t s1 = line.find('"', s0);
      size_t t0 = line.find('"', s1 + 1);
      if (s1 == std::string_view::npos || t0 == std::string_view::npos) break;
      ++t0;
      size_t t1 = line.find('"', t0);
      if (t1 == std::string_view::npos) break;
      out->tuple_hash += TupleHash(line.substr(s0, s1 - s0),
                                   line.substr(t0, t1 - t0));
      ++out->tuples;
      i = t1;
    }
    return;
  }
  if (line.rfind("{\"trailer\"", 0) == 0) {
    out->has_trailer = true;
    std::string_view st = ValueAfter(line, "\"status\": \"");
    out->status = std::string(st.substr(0, st.find('"')));
    out->epoch = UintAfter(line, "\"epoch\": ");
    out->answers = UintAfter(line, "\"answers\": ");
    out->trailer_chunks = UintAfter(line, "\"chunks\": ");
    out->partial = ValueAfter(line, "\"partial\": ").rfind("true", 0) == 0;
    out->eval_ms = DoubleAfter(line, "\"eval_ms\": ");
    out->total_ms = DoubleAfter(line, "\"total_ms\": ");
  }
}

void HttpConnection::Exchange(const std::string& request, HttpResult* out) {
  const bool reused = fd_ >= 0 && uses_ > 0;
  if (!Attempt(request, out) && reused) {
    ++stale_retries_;
    Attempt(request, out);
  }
}

bool HttpConnection::Attempt(const std::string& request, HttpResult* out) {
  *out = HttpResult{};
  if (fd_ < 0 && !Connect(port_)) return true;
  ++uses_;
  const char* p = request.data();
  size_t left = request.size();
  while (left > 0) {
    ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      Close();
      return false;
    }
    p += n;
    left -= static_cast<size_t>(n);
  }

  Clock::time_point when{};
  size_t head_end;
  while ((head_end = buf_.find("\r\n\r\n")) == std::string::npos) {
    if (!Fill(&when)) {
      const bool nothing = buf_.empty();
      Close();
      return !nothing;
    }
  }
  std::string_view head(buf_.data(), head_end);
  if (head.size() > 12) out->http_status = std::atoi(buf_.c_str() + 9);
  out->keep_alive = !HeaderHas(head, "connection", "close");
  const bool chunked = HeaderHas(head, "transfer-encoding", "chunked");
  size_t pos = head_end + 4;

  if (!chunked) {
    size_t len = static_cast<size_t>(UintAfter(head, "Content-Length: "));
    while (buf_.size() < pos + len) {
      if (!Fill(&when)) {
        Close();
        return true;
      }
    }
    std::string_view body(buf_.data() + pos, len);
    size_t start = 0;
    while (start < body.size()) {
      size_t nl = body.find('\n', start);
      if (nl == std::string_view::npos) nl = body.size();
      ParseLine(body.substr(start, nl - start), out);
      if (out->answer_chunks == 1 && out->first_answer == Clock::time_point{})
        out->first_answer = when;
      start = nl + 1;
    }
    buf_.erase(0, pos + len);
  } else {
    for (;;) {
      size_t eol;
      while ((eol = buf_.find("\r\n", pos)) == std::string::npos) {
        if (!Fill(&when)) {
          Close();
          return true;
        }
      }
      size_t size = std::strtoull(buf_.c_str() + pos, nullptr, 16);
      size_t data = eol + 2;
      while (buf_.size() < data + size + 2) {
        if (!Fill(&when)) {
          Close();
          return true;
        }
      }
      pos = data + size + 2;
      if (size == 0) break;
      std::string_view line(buf_.data() + data, size);
      if (!line.empty() && line.back() == '\n') line.remove_suffix(1);
      const uint64_t before = out->answer_chunks;
      ParseLine(line, out);
      if (before == 0 && out->answer_chunks == 1) out->first_answer = when;
    }
    buf_.erase(0, pos);
  }
  out->done = when;
  out->transport_ok = true;
  if (!out->keep_alive) Close();
  return true;
}

}  // namespace e2e
