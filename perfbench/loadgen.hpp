// Load generation against relkit_serve: a minimal HTTP/1.1 client (the
// daemon answers one request per connection and closes it) plus open-loop
// and closed-loop runners over a caller-supplied send function.
//
// Open loop: request k is due at k / rate seconds after the phase starts,
// whatever happened to earlier requests; at most `workers` are in flight.
// Its latency is timed from the due time, so a stall that delays later
// sends is charged to those requests too (no coordinated omission), and
// the generator's own lateness (sent - due) is reported beside it.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

namespace perfbench {

/// Full bytes of a `POST <target>` request carrying a JSON body.
std::string http_post_bytes(const std::string& target,
                            const std::string& body);

/// One request/response exchange over a fresh loopback connection.
struct Exchange {
  bool ok = false;  ///< transport worked and a status line was parsed
  int status = 0;
  std::string body;
  double connect_s = 0.0;
};
Exchange http_exchange(int port, const std::string& request_bytes);

/// Times of one open-loop request, seconds since the phase started.
struct Timed {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
};

/// Performs request `index`; returns true for a correct response.
using SendFn = std::function<bool(std::size_t index)>;
/// Called on the calling thread every tick with (seconds since the phase
/// started, correct responses so far), so it can sample the server.
using TickFn = std::function<void(double, std::size_t)>;

/// Open loop at `rate` requests/s for `seconds` on `workers` threads.
/// Returns one entry per request that was due inside the phase.
std::vector<Timed> open_loop(double rate, double seconds, unsigned workers,
                             const SendFn& send, double tick_s = 1.0,
                             const TickFn& on_tick = nullptr);

/// Closed loop: `workers` connections, each sending the next request as
/// soon as its previous one completed, for `seconds`. Returns every
/// request's round trip.
std::vector<double> closed_loop(double seconds, unsigned workers,
                                double tick_s, const SendFn& send,
                                const TickFn& on_tick);

}  // namespace perfbench
