#include "telemetry/liveops/liveops.hpp"

#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>

#include "net/http_server.hpp"
#include "telemetry/json_writer.hpp"
#include "telemetry/liveops/exposition.hpp"
#include "telemetry/liveops/watchdog.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/shutdown.hpp"
#include "telemetry/trace.hpp"

namespace senkf::telemetry::liveops {

namespace {

struct HttpState {
  std::mutex mutex;
  std::unique_ptr<net::HttpServer> server;
};

HttpState& state() {
  static auto* s = new HttpState();  // leaked: stopped via shutdown()
  return *s;
}

void add_routes(net::HttpServer& server) {
  server.add_route("/metrics", [](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "text/plain; version=0.0.4";
    response.body = render_prometheus();
    return response;
  });
  server.add_route("/health", [](const net::HttpRequest&) {
    net::HttpResponse response;
    response.content_type = "application/json";
    response.body = health_json();
    // A stall is a liveness failure: load balancers and the nightly
    // harness read the status code, humans read the body.
    if (watchdog_stats().fired > 0) response.status = 503;
    return response;
  });
}

}  // namespace

HttpEnvConfig parse_http_env(const char* value) {
  HttpEnvConfig config;
  const std::string v = value == nullptr ? "" : value;
  if (v.empty() || v == "off" || v == "false") return config;
  char* end = nullptr;
  const long port = std::strtol(v.c_str(), &end, 10);
  if (end == nullptr || *end != '\0' || port < 0 || port > 65535) {
    return config;  // unparsable: stay off, never crash the run
  }
  config.enabled = true;
  config.port = static_cast<std::uint16_t>(port);
  return config;
}

std::uint16_t start_liveops_http(std::uint16_t port) {
  HttpState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.server && s.server->running()) return s.server->port();
  auto server = std::make_unique<net::HttpServer>();
  add_routes(*server);
  try {
    server->start(port);
  } catch (const std::exception& e) {
    // A busy diagnostic port must never kill the run it diagnoses.
    std::cerr << "[senkf liveops] failed to bind 127.0.0.1:" << port << ": "
              << e.what() << "\n";
    return 0;
  }
  shutdown_at_exit();  // the endpoint dies before the exporters
  s.server = std::move(server);
  std::cerr << "[senkf liveops] serving on 127.0.0.1:" << s.server->port()
            << "\n";
  return s.server->port();
}

void stop_liveops_http() {
  HttpState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  if (s.server) {
    s.server->stop();
    s.server.reset();
  }
}

bool liveops_http_running() {
  HttpState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.server && s.server->running();
}

std::uint16_t liveops_port() {
  HttpState& s = state();
  std::lock_guard<std::mutex> lock(s.mutex);
  return s.server && s.server->running() ? s.server->port() : 0;
}

bool ensure_liveops_started() {
  ensure_watchdog_started();
  static const HttpEnvConfig config = parse_http_env(std::getenv("SENKF_HTTP"));
  if (config.enabled && !liveops_http_running()) {
    start_liveops_http(config.port);
  }
  return liveops_http_running();
}

std::string health_json() {
  const WatchdogStats watchdog = watchdog_stats();
  std::ostringstream out;
  JsonWriter json(out);
  json.begin_object()
      .field("status", watchdog.fired == 0 ? "ok" : "stalled")
      .field("uptime_ns", now_ns())
      .field("metrics",
             static_cast<std::uint64_t>(Registry::global().rows().size()));
  json.key("watchdog");
  write_watchdog(json, watchdog);
  json.end_object();
  return out.str();
}

}  // namespace senkf::telemetry::liveops
