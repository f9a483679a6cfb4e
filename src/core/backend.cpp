#include "core/backend.h"

#include <cstdio>

namespace ammb::core {

std::string ExecutionBackend::label() const {
  if (kind == Kind::kSim) return "sim";
  if (net == mac::NetBackendParams{}) return "net";
  char text[128];
  std::snprintf(text, sizeof(text), "net:%d,%g,%lld,%d,%lld,%lld",
                net.basePort, net.loss, static_cast<long long>(net.tickUs),
                net.gPrimeAttempts, static_cast<long long>(net.ackDelayTicks),
                static_cast<long long>(net.jitterUs));
  return text;
}

ExecutionBackend ExecutionBackend::fromLabel(const std::string& label) {
  if (label == "sim") return simBackend();
  if (label == "net") return netWith(mac::NetBackendParams{});
  const std::string prefix = "net:";
  if (label.rfind(prefix, 0) == 0) {
    mac::NetBackendParams params;
    long long tickUs = 0;
    long long ackDelay = 0;
    long long jitterUs = 0;
    char trailing = '\0';
    const int matched = std::sscanf(
        label.c_str() + prefix.size(), "%d,%lf,%lld,%d,%lld,%lld%c",
        &params.basePort, &params.loss, &tickUs, &params.gPrimeAttempts,
        &ackDelay, &jitterUs, &trailing);
    AMMB_REQUIRE(matched == 6,
                 "unknown execution backend '" + label +
                     "' (expected \"sim\", \"net\" or \"net:<basePort>,"
                     "<loss>,<tickUs>,<gPrimeAttempts>,<ackDelayTicks>,"
                     "<jitterUs>\")");
    params.tickUs = tickUs;
    params.ackDelayTicks = static_cast<Time>(ackDelay);
    params.jitterUs = jitterUs;
    return netWith(params);
  }
  throw Error("unknown execution backend '" + label +
              "' (expected \"sim\", \"net\" or \"net:<basePort>,<loss>,"
              "<tickUs>,<gPrimeAttempts>,<ackDelayTicks>,<jitterUs>\")");
}

}  // namespace ammb::core
