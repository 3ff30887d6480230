#include "cli_options.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "transport/congestion_control.h"

namespace rv::tools {
namespace {

struct Parsed {
  bool ok = false;
  std::string err;
  tracer::TracerConfig tracer;
  SharedFlags flags;
};

Parsed parse(std::vector<std::string> argv, bool with_watch = true) {
  argv.insert(argv.begin(), "tool");
  std::vector<const char*> raw;
  for (const auto& a : argv) raw.push_back(a.c_str());
  const util::Args args(static_cast<int>(raw.size()), raw.data());
  Parsed p;
  std::ostringstream err;
  p.ok = parse_shared_flags(args, with_watch, &p.tracer, &p.flags, err);
  p.err = err.str();
  return p;
}

// Every malformed shared flag is refused (the tools exit 2) with a message
// naming the flag.
TEST(CliOptions, MalformedFlagsAreRejectedWithTheirName) {
  const struct {
    std::vector<std::string> argv;
    std::string flag;
  } cases[] = {
      {{"--cc", "vegas"}, "--cc"},
      {{"--cc"}, "--cc"},
      {{"--trace"}, "--trace"},
      {{"--series-csv"}, "--series-csv"},
      {{"--telemetry-interval-ms", "0"}, "--telemetry-interval-ms"},
      {{"--telemetry-interval-ms", "-3"}, "--telemetry-interval-ms"},
      {{"--telemetry-interval-ms", "5ms"}, "--telemetry-interval-ms"},
      {{"--watch", "0"}, "--watch"},
      {{"--watch", "-5"}, "--watch"},
      {{"--watch", "abc"}, "--watch"},
      {{"--status-port", "70000"}, "--status-port"},
      {{"--status-port", "abc"}, "--status-port"},
      {{"--status-port"}, "--status-port"},
      {{"--status-hold-ms=-5"}, "--status-hold-ms"},
      {{"--status-hold-ms", "x"}, "--status-hold-ms"},
  };
  for (const auto& c : cases) {
    const Parsed p = parse(c.argv);
    EXPECT_FALSE(p.ok) << c.argv[0];
    EXPECT_NE(p.err.find(c.flag), std::string::npos)
        << c.argv[0] << ": " << p.err;
  }
}

// Each well-formed flag lands in its config field; absent flags keep the
// defaults.
TEST(CliOptions, GoodFlagsSetTheExpectedConfig) {
  const tracer::TracerConfig defaults;
  const Parsed none = parse({});
  ASSERT_TRUE(none.ok) << none.err;
  EXPECT_EQ(none.tracer.tcp_cc, defaults.tcp_cc);
  EXPECT_FALSE(none.tracer.obs.enabled);
  EXPECT_FALSE(none.tracer.telemetry.enabled);
  EXPECT_EQ(none.tracer.telemetry.interval, msec(500));
  EXPECT_EQ(none.tracer.watch_duration, defaults.watch_duration);
  EXPECT_TRUE(none.flags.trace_path.empty());
  EXPECT_TRUE(none.flags.series_csv.empty());
  EXPECT_EQ(none.flags.status_port, -1);
  EXPECT_EQ(none.flags.status_hold_ms, 0);

  const Parsed all = parse({"--cc", "bbr", "--trace", "t.json", "--series-csv",
                            "s.csv", "--telemetry-interval-ms", "250",
                            "--watch", "2.5", "--status-port=0",
                            "--status-hold-ms", "150"});
  ASSERT_TRUE(all.ok) << all.err;
  EXPECT_TRUE(all.err.empty()) << all.err;
  EXPECT_EQ(all.tracer.tcp_cc, transport::CcAlgorithm::kBbr);
  EXPECT_EQ(all.flags.trace_path, "t.json");
  EXPECT_TRUE(all.tracer.obs.enabled);
  EXPECT_EQ(all.flags.series_csv, "s.csv");
  EXPECT_TRUE(all.tracer.telemetry.enabled);  // series need sampling
  EXPECT_EQ(all.tracer.telemetry.interval, msec(250));
  EXPECT_EQ(all.tracer.watch_duration, msec(2500));
  EXPECT_EQ(all.flags.status_port, 0);
  EXPECT_EQ(all.flags.status_hold_ms, 150);

  EXPECT_TRUE(parse({"--telemetry"}).tracer.telemetry.enabled);
  // A command that does not take --watch never reads it, malformed or not.
  const Parsed no_watch = parse({"--watch", "0"}, /*with_watch=*/false);
  ASSERT_TRUE(no_watch.ok) << no_watch.err;
  EXPECT_EQ(no_watch.tracer.watch_duration, defaults.watch_duration);

  // shared_flag_names covers every flag read above, --watch only with_watch.
  const char* every[] = {"tool",           "--cc=bbr",
                         "--trace=t",      "--series-csv=s",
                         "--telemetry",    "--telemetry-interval-ms=250",
                         "--status-port=0", "--status-hold-ms=150",
                         "--watch=2"};
  const util::Args with(static_cast<int>(std::size(every)), every);
  with.reject_unknown(shared_flag_names(/*with_watch=*/true));
  EXPECT_TRUE(with.errors().empty());
  const util::Args without(static_cast<int>(std::size(every)), every);
  without.reject_unknown(shared_flag_names(/*with_watch=*/false));
  EXPECT_EQ(without.errors(),
            std::vector<std::string>{"--watch: unknown flag"});
}

// The single-play names: each accepted name lands in its field, and any
// other name (an empty one included) is refused with the flag and the
// accepted names in the message.
TEST(CliOptions, SinglePlayNamesAreOneStrictTable) {
  const auto single = [](std::vector<std::string> argv, SinglePlay* play,
                         std::string* err) {
    argv.insert(argv.begin(), "tool");
    std::vector<const char*> raw;
    for (const auto& a : argv) raw.push_back(a.c_str());
    const util::Args args(static_cast<int>(raw.size()), raw.data());
    std::ostringstream os;
    const bool ok = parse_single_play(args, play, os);
    *err = os.str();
    return ok;
  };
  SinglePlay play;
  std::string err;
  ASSERT_TRUE(single({}, &play, &err)) << err;
  EXPECT_EQ(play.user.connection, world::ConnectionClass::kDslCable);
  EXPECT_EQ(play.user.region, world::Region::kUsEast);
  EXPECT_FALSE(play.force_tcp);
  EXPECT_EQ(play.seed, 2001u);
  EXPECT_EQ(play.user.seed, 2001u);

  ASSERT_TRUE(single({"--connection", "modem", "--region", "australia",
                      "--protocol", "tcp", "--seed", "7", "--clip", "3"},
                     &play, &err))
      << err;
  EXPECT_EQ(play.user.connection, world::ConnectionClass::kModem56k);
  EXPECT_EQ(play.user.region, world::Region::kAustralia);
  EXPECT_TRUE(play.force_tcp);
  EXPECT_EQ(play.user.seed, 7u);
  EXPECT_EQ(play.clip, 3);
  ASSERT_TRUE(single({"--connection", "lan"}, &play, &err)) << err;
  EXPECT_EQ(play.user.connection, world::ConnectionClass::kT1Lan);

  const struct {
    std::vector<std::string> argv;
    std::string want;
  } bad[] = {
      {{"--connection", "cable"}, "--connection expects one of modem|dsl|"},
      {{"--connection"}, "--connection expects one of"},
      {{"--region", "mars"}, "--region expects one of us-east|"},
      {{"--protocol", "udp"}, "--protocol expects one of auto|tcp"},
  };
  for (const auto& c : bad) {
    EXPECT_FALSE(single(c.argv, &play, &err)) << c.argv[0];
    EXPECT_NE(err.find(c.want), std::string::npos) << err;
  }
}

}  // namespace
}  // namespace rv::tools
