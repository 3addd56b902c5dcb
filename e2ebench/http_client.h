// Blocking keep-alive HTTP/1.1 client for POST /v1/query: sends one
// request, decodes the chunked NDJSON answer stream as it arrives, and
// records when the first answer chunk and the last trailer byte landed.
// Answers are folded into an order-independent multiset hash so a response
// can be compared with the reference without storing its tuples.
#ifndef E2EBENCH_HTTP_CLIENT_H_
#define E2EBENCH_HTTP_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Hash of one answer tuple; a response's hash is the wrapping sum over its
/// tuples, so duplicates change it and order does not.
uint64_t TupleHash(std::string_view source, std::string_view target);

struct HttpResult {
  bool transport_ok = false;  // full response read
  int http_status = 0;
  bool keep_alive = true;     // server did not ask to close
  // Trailer fields.
  bool has_trailer = false;
  std::string status;         // trailer status wire name
  uint64_t epoch = 0;
  uint64_t answers = 0;       // trailer's answer count
  uint64_t trailer_chunks = 0;
  bool partial = false;
  double eval_ms = 0;
  double total_ms = 0;
  // What actually arrived.
  uint64_t tuples = 0;         // tuples over every answer chunk
  uint64_t tuple_hash = 0;     // sum of TupleHash over those tuples
  uint64_t answer_chunks = 0;  // answer lines (trailer excluded)
  uint64_t answer_bytes = 0;   // bytes of those lines
  Clock::time_point first_answer{};  // set when answer_chunks > 0
  Clock::time_point done{};
};

class HttpConnection {
 public:
  HttpConnection() = default;
  ~HttpConnection();
  HttpConnection(const HttpConnection&) = delete;
  HttpConnection& operator=(const HttpConnection&) = delete;

  bool Connect(uint16_t port);
  void Close();
  uint64_t connects() const { return connects_; }
  /// Requests re-sent on a fresh connection because the server had closed
  /// the reused one before answering (see Exchange).
  uint64_t stale_retries() const { return stale_retries_; }

  /// Sends `request` (complete HTTP bytes) and reads the whole response.
  /// Reconnects first when the previous response closed the connection.
  /// Like any HTTP client, re-sends once on a fresh connection when a
  /// reused one turns out closed before a byte of the response arrived.
  /// On transport failure the connection is closed and `out` reports it.
  void Exchange(const std::string& request, HttpResult* out);

 private:
  /// One attempt; false when the connection was found closed before any
  /// response byte (the request can safely be re-sent).
  bool Attempt(const std::string& request, HttpResult* out);
  bool Fill(Clock::time_point* when);
  void ParseLine(std::string_view line, HttpResult* out);

  int fd_ = -1;
  uint16_t port_ = 0;
  uint64_t connects_ = 0;
  uint64_t stale_retries_ = 0;
  uint64_t uses_ = 0;  // requests sent on the current connection
  std::string buf_;
};

}  // namespace e2e

#endif  // E2EBENCH_HTTP_CLIENT_H_
