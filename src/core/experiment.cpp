#include "core/experiment.h"

#include <cmath>
#include <cstdio>
#include <utility>

#include "net/engine.h"
#include "phys/csma.h"

namespace ammb::core {

std::string toString(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::kFast: return "fast";
    case SchedulerKind::kRandom: return "random";
    case SchedulerKind::kSlowAck: return "slow-ack";
    case SchedulerKind::kAdversarial: return "adversarial";
    case SchedulerKind::kAdversarialStuffing: return "adversarial+stuff";
    case SchedulerKind::kLowerBound: return "lower-bound";
  }
  return "?";
}

std::unique_ptr<mac::Scheduler> makeScheduler(SchedulerKind kind,
                                              int lowerBoundLineLength) {
  switch (kind) {
    case SchedulerKind::kFast:
      return std::make_unique<mac::FastScheduler>();
    case SchedulerKind::kRandom:
      return std::make_unique<mac::RandomScheduler>();
    case SchedulerKind::kSlowAck:
      return std::make_unique<mac::SlowAckScheduler>();
    case SchedulerKind::kAdversarial:
      return std::make_unique<mac::AdversarialScheduler>();
    case SchedulerKind::kAdversarialStuffing: {
      mac::AdversarialScheduler::Options opts;
      opts.stuffUnreliable = true;
      return std::make_unique<mac::AdversarialScheduler>(opts);
    }
    case SchedulerKind::kLowerBound:
      return std::make_unique<mac::LowerBoundScheduler>(lowerBoundLineLength);
  }
  throw Error("unknown scheduler kind");
}

std::string toString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kBmmb: return "bmmb";
    case ProtocolKind::kFmmb: return "fmmb";
  }
  return "?";
}

const BmmbSpec& ProtocolSpec::bmmb() const {
  AMMB_REQUIRE(kind() == ProtocolKind::kBmmb,
               "ProtocolSpec does not hold BMMB knobs");
  return std::get<BmmbSpec>(spec_);
}

const FmmbSpec& ProtocolSpec::fmmb() const {
  AMMB_REQUIRE(kind() == ProtocolKind::kFmmb,
               "ProtocolSpec does not hold FMMB knobs");
  return std::get<FmmbSpec>(spec_);
}

ProtocolSpec bmmbProtocol(QueueDiscipline discipline, ReactionSpec reaction) {
  return ProtocolSpec(BmmbSpec{discipline, reaction});
}

ProtocolSpec fmmbProtocol(FmmbParams params, ReactionSpec reaction) {
  return ProtocolSpec(FmmbSpec{std::move(params), reaction});
}

mac::MacParams effectiveMacParams(const RunConfig& config) {
  if (config.realization.abstract() || config.scheduler.factory) {
    return config.mac;
  }
  return phys::csmaEnvelopeParams(config.realization.csma, config.mac);
}

std::string DynamicsSpec::label() const {
  switch (kind) {
    case Kind::kStatic:
      return "static";
    case Kind::kCrash:
      return "crash" + std::to_string(crashes) + "p" + std::to_string(period) +
             "d" + std::to_string(downFor);
    case Kind::kGreyDrift: {
      char churnText[32];
      std::snprintf(churnText, sizeof(churnText), "%g", churn);
      return "drift" + std::to_string(epochs) + "p" + std::to_string(period) +
             "c" + churnText;
    }
  }
  return "?";
}

graph::TopologyDynamics DynamicsSpec::build(const graph::DualGraph& base,
                                            std::uint64_t seed) const {
  switch (kind) {
    case Kind::kStatic:
      return {};
    case Kind::kCrash: {
      Rng rng = SeedSequence(seed).childRng(rngstream::kDynamics, 0);
      return graph::gen::crashRecoverySchedule(base, crashes, period, downFor,
                                               rng);
    }
    case Kind::kGreyDrift: {
      Rng rng = SeedSequence(seed).childRng(rngstream::kDynamics, 0);
      return graph::gen::greyZoneDriftSchedule(base, epochs, period, churn,
                                               rng);
    }
  }
  throw Error("unknown dynamics kind");
}

namespace {

std::variant<BmmbSuite, FmmbSuite> makeSuite(const ProtocolSpec& protocol) {
  using SuiteVariant = std::variant<BmmbSuite, FmmbSuite>;
  if (protocol.kind() == ProtocolKind::kFmmb) {
    return SuiteVariant(std::in_place_type<FmmbSuite>, protocol.fmmb().params,
                        protocol.fmmb().reaction);
  }
  return SuiteVariant(std::in_place_type<BmmbSuite>,
                      protocol.bmmb().discipline, protocol.bmmb().reaction);
}

}  // namespace

Experiment::Experiment(const graph::DualGraph& topology,
                       const ProtocolSpec& protocol, ArrivalProcess& arrivals,
                       const RunConfig& config)
    : Experiment(topology, protocol, nullptr, &arrivals, config) {}

Experiment::Experiment(const graph::DualGraph& topology,
                       const ProtocolSpec& protocol,
                       const MmbWorkload& workload, const RunConfig& config)
    : Experiment(topology, protocol, streamWorkload(workload), nullptr,
                 config) {}

Experiment::Experiment(const graph::DualGraph& topology,
                       const ProtocolSpec& protocol,
                       std::unique_ptr<ArrivalProcess> owned,
                       ArrivalProcess* external, const RunConfig& config)
    : protocol_(protocol),
      config_(config),
      view_(topology, config.dynamics.build(topology, config.seed)),
      ownedArrivals_(std::move(owned)),
      arrivals_(external != nullptr ? external : ownedArrivals_.get()),
      suite_(makeSuite(protocol)),
      tracker_(topology, arrivals_->k()) {
  if (protocol_.kind() == ProtocolKind::kFmmb) {
    AMMB_REQUIRE(config_.mac.variant == mac::ModelVariant::kEnhanced,
                 "FMMB requires the enhanced abstract MAC layer model");
  }
  const mac::MacLayer::ProcessFactory factory =
      std::visit([](auto& suite) { return suite.factory(); }, suite_);
  if (!config_.backend.sim()) {
    // The net backend runs the same automata over UDP sockets; real
    // message timing replaces the scheduler axis, and scripted
    // topology dynamics have no real-time counterpart.
    AMMB_REQUIRE(config_.dynamics.isStatic(),
                 "the net backend requires static topology dynamics");
    AMMB_REQUIRE(config_.realization.abstract(),
                 "the net backend is itself the MAC realization — combine "
                 "it only with the abstract realization");
    AMMB_REQUIRE(!config_.scheduler.factory,
                 "custom schedulers have no meaning on the net backend");
    net::NetConfig netConfig;
    netConfig.net = config_.backend.net;
    netConfig.seed = config_.seed;
    netConfig.recordTrace = config_.recordTrace;
    netConfig.traceMode = config_.traceMode;
    layer_ = std::make_unique<net::NetEngine>(view_, config_.mac, factory,
                                              netConfig);
  } else {
    // A physical realization replaces the scheduler axis: contention
    // rounds, not a SchedulerKind, decide the timing.  The engine runs
    // under the realization's analytic envelope so every
    // physically-derived plan is accepted online.  Custom factories
    // (mutation fixtures) win over the realization — they are the
    // scheduler under test.
    config_.mac = effectiveMacParams(config_);
    std::unique_ptr<mac::Scheduler> scheduler;
    if (!config_.realization.abstract() && !config_.scheduler.factory) {
      scheduler =
          std::make_unique<phys::PhysScheduler>(config_.realization.csma);
    } else if (config_.scheduler.factory) {
      scheduler = config_.scheduler.factory();
    } else {
      scheduler = makeScheduler(config_.scheduler.kind,
                                config_.scheduler.lowerBoundLineLength);
    }
    AMMB_REQUIRE(scheduler != nullptr, "scheduler factory returned null");
    auto engine = std::make_unique<mac::MacEngine>(
        view_, config_.mac, std::move(scheduler), factory, config_.seed,
        config_.recordTrace, config_.traceMode);
    engine->setPlanValidation(config_.scheduler.validatePlans);
    engine->setEpochNotification(config_.scheduler.notifyEpochChanges);
    if (auto* bmmb = std::get_if<BmmbSuite>(&suite_)) engine->setOracle(bmmb);
    engine_ = engine.get();
    layer_ = std::move(engine);
  }
  tracker_.attach(*layer_, config_.limits.stopOnSolve);
  layer_->setArrivalSource(
      [this]() -> std::optional<mac::MacLayer::ArrivalEvent> {
        const std::optional<Arrival> arrival = arrivals_->next();
        if (!arrival.has_value()) {
          // Solve detection must not fire while arrivals are pending:
          // a later arrival of an already-seen message can still add
          // requirements (e.g. in another component of G).
          tracker_.markArrivalsComplete(layer_->now());
          return std::nullopt;
        }
        return mac::MacLayer::ArrivalEvent{arrival->node, arrival->msg,
                                           arrival->at};
      });
}

Experiment::~Experiment() = default;

RunResult Experiment::run() {
  RunResult result;
  result.status = layer_->run(config_.limits.maxTime, config_.limits.maxEvents);
  result.solved = tracker_.solved();
  result.solveTime = tracker_.solved() ? tracker_.solveTime() : kTimeNever;
  result.endTime = layer_->now();
  result.stats = layer_->stats();
  result.messages = tracker_.metrics();
  result.retransmits =
      std::visit([](auto& s) { return s.totalRetransmits(); }, suite_);
  return result;
}

const BmmbSuite& Experiment::bmmbSuite() const {
  const auto* suite = std::get_if<BmmbSuite>(&suite_);
  AMMB_REQUIRE(suite != nullptr, "this experiment does not run BMMB");
  return *suite;
}

const FmmbSuite& Experiment::fmmbSuite() const {
  const auto* suite = std::get_if<FmmbSuite>(&suite_);
  AMMB_REQUIRE(suite != nullptr, "this experiment does not run FMMB");
  return *suite;
}

RunResult runExperiment(const graph::DualGraph& topology,
                        const ProtocolSpec& protocol, ArrivalProcess& arrivals,
                        const RunConfig& config) {
  Experiment experiment(topology, protocol, arrivals, config);
  return experiment.run();
}

RunResult runExperiment(const graph::DualGraph& topology,
                        const ProtocolSpec& protocol,
                        const MmbWorkload& workload, const RunConfig& config) {
  Experiment experiment(topology, protocol, workload, config);
  return experiment.run();
}

std::vector<RunResult> runSeedSweep(const graph::DualGraph& topology,
                                    const ProtocolSpec& protocol,
                                    const ArrivalFactory& arrivals,
                                    const RunConfig& config,
                                    std::uint64_t seedBegin,
                                    std::uint64_t seedEnd) {
  AMMB_REQUIRE(seedBegin <= seedEnd, "empty-or-forward seed range required");
  AMMB_REQUIRE(arrivals != nullptr, "an arrival factory is required");
  std::vector<RunResult> results;
  results.reserve(static_cast<std::size_t>(seedEnd - seedBegin));
  for (std::uint64_t seed = seedBegin; seed < seedEnd; ++seed) {
    RunConfig cfg = config;
    cfg.seed = seed;
    const std::unique_ptr<ArrivalProcess> stream = arrivals(seed);
    AMMB_REQUIRE(stream != nullptr, "arrival factory returned null");
    results.push_back(runExperiment(topology, protocol, *stream, cfg));
  }
  return results;
}

Time bmmbRRestrictedBound(int diameter, int k, int r,
                          const mac::MacParams& params) {
  AMMB_REQUIRE(k >= 1 && r >= 1 && diameter >= 0, "invalid bound arguments");
  return (diameter + static_cast<Time>(r + 1) * k - 2) * params.fprog +
         static_cast<Time>(r) * (k - 1) * params.fack;
}

Time bmmbArbitraryBound(int diameter, int k, const mac::MacParams& params) {
  AMMB_REQUIRE(k >= 1 && diameter >= 0, "invalid bound arguments");
  return (static_cast<Time>(diameter) + k) * params.fack;
}

Time fmmbBoundEnvelope(int diameter, int k, const FmmbParams& fmmb,
                       const mac::MacParams& params) {
  AMMB_REQUIRE(k >= 1 && diameter >= 0, "invalid bound arguments");
  const double c2 = fmmb.c * fmmb.c;
  // Gather needs Theta(c^2 (k + log n)) periods of 3 rounds; spread
  // needs (D_H + k + O(1)) procedure phases.  The factor 2 accounts
  // for interleaving; generous constants make this a test envelope,
  // not a tight prediction.
  const auto gatherRounds = static_cast<Time>(
      3.0 * std::ceil(6.0 * c2 * (k + fmmb.logn)));
  const Time spreadRounds = static_cast<Time>(3) * fmmb.spreadPeriods *
                            (static_cast<Time>(diameter) + k + 4);
  const Time dissemination = 2 * (gatherRounds + spreadRounds);
  const Time rounds = fmmb.misRounds() + dissemination;
  return rounds * (params.fprog + 1);
}

}  // namespace ammb::core
