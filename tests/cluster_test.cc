// In-process cluster tests: the full coordinator + servers + clients
// drill running as threads of one process, each member with its own
// ClusterRuntime talking over real loopback sockets — the same code paths
// as examples/cluster, but assertable.
//
// Covers the graceful-shutdown contract (drain, complete telemetry
// report, Goodbye) and the chaos-hardening contract: with a lossy shim
// dropping and duplicating UDP datagrams underneath, the client retry
// policy and the DuplicateFilters above still yield a zero-failure drill.

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "lhrs/messages.h"
#include "lhstar/messages.h"
#include "transport/cluster.h"
#include "transport/wire.h"

namespace lhrs::transport {
namespace {

std::string ReadFileToString(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// True when `s` is one complete JSON object: balanced braces/brackets
/// outside strings and nothing but whitespace after the closing brace.
/// (Not a validating parser — it is exactly the truncation detector the
/// graceful-shutdown contract needs.)
bool IsCompleteJsonObject(const std::string& s) {
  size_t i = 0;
  while (i < s.size() && isspace(static_cast<unsigned char>(s[i]))) ++i;
  if (i == s.size() || s[i] != '{') return false;
  int depth = 0;
  bool in_string = false;
  for (; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']') {
      if (--depth < 0) return false;
      if (depth == 0) break;
    }
  }
  if (depth != 0 || i == s.size()) return false;
  for (++i; i < s.size(); ++i) {
    if (!isspace(static_cast<unsigned char>(s[i]))) return false;
  }
  return true;
}

/// Number of times `needle` occurs in `haystack`.
size_t CountOf(const std::string& haystack, const std::string& needle) {
  size_t n = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++n;
  }
  return n;
}

/// Extracts the integer value of `"key": N` from a report, -1 if absent.
int64_t JsonIntValue(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const size_t pos = json.find(needle);
  if (pos == std::string::npos) return -1;
  return atoll(json.c_str() + pos + needle.size());
}

ClusterLayout MakeLayout() {
  ClusterLayout layout;  // 3 servers + 2 clients, as in examples/cluster.
  layout.file.initial_buckets = 4;
  layout.file.bucket_capacity = 32;
  layout.group_size = 4;
  layout.base_k = 1;
  return layout;
}

/// Reserves an ephemeral control port (open, read, close; the coordinator
/// rebinds it a moment later — members retry their connects).
uint16_t ReserveControlPort() {
  ControlListener probe;
  EXPECT_TRUE(probe.Open(0).ok());
  const uint16_t port = probe.port();
  probe.Close();
  return port;
}

class ClusterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    report_dir_ = ::testing::TempDir() + "cluster_" +
                  ::testing::UnitTest::GetInstance()
                      ->current_test_info()
                      ->name();
    (void)mkdir(report_dir_.c_str(), 0755);
  }

  ClusterMemberOptions MemberOptions(const ClusterLayout& layout, int rank,
                                     uint16_t port) {
    ClusterMemberOptions options;
    options.layout = layout;
    options.control_port = port;
    options.deadline_ms = 60'000;
    options.report_path =
        report_dir_ + "/member_rank" + std::to_string(rank) + ".json";
    return options;
  }

  /// Runs the whole drill in-process; returns the coordinator (for result
  /// inspection) with every member exit code in `codes`.
  std::unique_ptr<ClusterCoordinator> RunDrill(
      const ClusterLayout& layout, std::vector<int>& codes,
      uint32_t loss_drop_every = 0, uint32_t loss_dup_every = 0) {
    const uint16_t port = ReserveControlPort();
    const uint32_t total = layout.total_ranks();
    codes.assign(total, -1);

    ClusterCoordinator::Options coord_options;
    static_cast<ClusterMemberOptions&>(coord_options) =
        MemberOptions(layout, 0, port);
    coord_options.crash_bucket = 1;
    coord_options.loss_drop_every = loss_drop_every;
    coord_options.loss_dup_every = loss_dup_every;
    auto coordinator = std::make_unique<ClusterCoordinator>(coord_options);

    std::vector<std::thread> threads;
    threads.emplace_back(
        [&, c = coordinator.get()] { codes[0] = c->Run(); });
    for (uint32_t s = 0; s < layout.server_ranks; ++s) {
      const int rank = 1 + static_cast<int>(s);
      threads.emplace_back([&, rank] {
        auto options = MemberOptions(layout, rank, port);
        options.loss_drop_every = loss_drop_every;
        options.loss_dup_every = loss_dup_every;
        ClusterServer server(options, rank);
        codes[rank] = server.Run();
      });
    }
    for (uint32_t c = 0; c < layout.client_ranks; ++c) {
      const int rank = 1 + static_cast<int>(layout.server_ranks + c);
      threads.emplace_back([&, rank] {
        auto options = MemberOptions(layout, rank, port);
        options.loss_drop_every = loss_drop_every;
        options.loss_dup_every = loss_dup_every;
        ClusterClient client(options, rank, /*keys_per_session=*/120);
        codes[rank] = client.Run();
      });
    }
    for (std::thread& t : threads) t.join();
    return coordinator;
  }

  void ExpectCleanDrill(const ClusterCoordinator& coordinator,
                        const std::vector<int>& codes,
                        const ClusterLayout& layout) {
    for (size_t rank = 0; rank < codes.size(); ++rank) {
      EXPECT_EQ(codes[rank], 0) << "rank " << rank << " exited non-zero";
    }
    // Both workload phases finished on every client with zero failures.
    ASSERT_EQ(coordinator.results().size(), 2 * layout.client_ranks);
    for (const auto& [key, result] : coordinator.results()) {
      EXPECT_TRUE(result.ok) << "phase " << key.first << " rank "
                             << key.second;
      EXPECT_EQ(result.failures, 0u);
      EXPECT_GT(result.ops, 0u);
    }
  }

  std::string report_dir_;
};

TEST_F(ClusterTest, DrillRunsEndToEndInProcess) {
  const ClusterLayout layout = MakeLayout();
  std::vector<int> codes;
  auto coordinator = RunDrill(layout, codes);
  ExpectCleanDrill(*coordinator, codes, layout);

  // Graceful-shutdown contract: every member flushed a complete,
  // untruncated telemetry report before its Goodbye.
  for (uint32_t rank = 0; rank < layout.total_ranks(); ++rank) {
    const std::string path =
        report_dir_ + "/member_rank" + std::to_string(rank) + ".json";
    const std::string json = ReadFileToString(path);
    ASSERT_FALSE(json.empty()) << path;
    EXPECT_TRUE(IsCompleteJsonObject(json)) << path << " is truncated";
    EXPECT_NE(json.find("\"clean_shutdown\""), std::string::npos);
    // One transport count per report, the coordinator's included: each
    // count once, and none again under a second name.
    for (const char* count :
         {"udp_datagrams_sent", "udp_bytes_sent", "udp_datagrams_received",
          "retransmits", "send_failures", "dup_suppressed", "acks_sent",
          "tcp_frames_sent", "tcp_bytes_sent", "tcp_frames_received",
          "decode_failures"}) {
      EXPECT_EQ(CountOf(json, "\"transport." + std::string(count) + "\""),
                1u)
          << path << ": transport." << count;
    }
    for (const char* second_name :
         {"transport.udp.datagrams_sent", "transport.udp.bytes_sent",
          "transport.udp.retransmits", "transport.udp.dup_suppressed",
          "transport.tcp.bytes_sent"}) {
      EXPECT_EQ(CountOf(json, second_name), 0u) << path << ": " << second_name;
    }
  }
}

TEST_F(ClusterTest, DrillSurvivesLossyTransport) {
  // Every member's transport drops every 7th and duplicates every 5th
  // outgoing data datagram. The reliability stack (ack + bounded
  // retransmit below, ClientRetryPolicy + DuplicateFilter above) must
  // absorb all of it: same zero-failure drill as the clean run.
  const ClusterLayout layout = MakeLayout();
  std::vector<int> codes;
  auto coordinator =
      RunDrill(layout, codes, /*loss_drop_every=*/7, /*loss_dup_every=*/5);
  ExpectCleanDrill(*coordinator, codes, layout);

  // Prove the shim actually injected faults: the transports retransmitted
  // dropped frames and suppressed duplicated ones.
  int64_t retransmits = 0;
  int64_t dup_suppressed = 0;
  for (uint32_t rank = 0; rank < layout.total_ranks(); ++rank) {
    const std::string json = ReadFileToString(
        report_dir_ + "/member_rank" + std::to_string(rank) + ".json");
    retransmits += std::max<int64_t>(
        0, JsonIntValue(json, "transport.retransmits"));
    dup_suppressed += std::max<int64_t>(
        0, JsonIntValue(json, "transport.dup_suppressed"));
  }
  EXPECT_GT(retransmits, 0);
  EXPECT_GT(dup_suppressed, 0);
}

/// Accepts a member's control connection and waits for its Hello.
ControlConn AcceptHello(ControlListener& listener, CtrlMsg* hello) {
  std::optional<ControlConn> conn;
  while (!conn.has_value()) {
    conn = listener.Accept();
    if (!conn.has_value()) usleep(5'000);
  }
  std::optional<CtrlMsg> msg;
  while (!msg.has_value() || msg->type != CtrlType::kHello) {
    msg = conn->Poll();
    if (!msg.has_value()) usleep(5'000);
  }
  *hello = *msg;
  return std::move(*conn);
}

/// A Welcome as the coordinator sends it, with every rank at `endpoint`
/// (idle drills: nothing ever routes to the other ranks, so the member's
/// own address stands in).
CtrlMsg WelcomeFor(const ClusterLayout& layout, const Endpoint& endpoint) {
  CtrlMsg welcome;
  welcome.type = CtrlType::kWelcome;
  welcome.endpoints.assign(layout.total_ranks(), endpoint);
  welcome.field_choice = static_cast<uint32_t>(layout.field);
  welcome.code = layout.code.Name();
  return welcome;
}

TEST_F(ClusterTest, ServerStopRequestDrainsAndWritesCompleteReport) {
  // A lone server against a test-driven control plane: after the
  // handshake, RequestStop (the SIGTERM hook) must drain, write a
  // complete report, send Goodbye and exit 0 — without ever seeing a
  // coordinator Stop.
  const ClusterLayout layout = MakeLayout();
  ControlListener listener;
  ASSERT_TRUE(listener.Open(0).ok());

  auto options = MemberOptions(layout, 1, listener.port());
  options.deadline_ms = 20'000;
  ClusterServer server(options, /*rank=*/1);
  int code = -1;
  std::thread runner([&] { code = server.Run(); });

  CtrlMsg hello;
  ControlConn conn = AcceptHello(listener, &hello);
  EXPECT_EQ(hello.rank, 1u);
  conn.SendMsg(WelcomeFor(layout, hello.endpoint));

  std::optional<CtrlMsg> ready;
  while (!ready.has_value() || ready->type != CtrlType::kReady) {
    conn.Flush();
    ready = conn.Poll();
    if (!ready.has_value()) usleep(5'000);
  }

  server.RequestStop();
  runner.join();
  EXPECT_EQ(code, 0);

  // The Goodbye arrives only after the report hit the disk.
  std::optional<CtrlMsg> bye;
  for (int i = 0; i < 100 && !bye.has_value(); ++i) {
    bye = conn.Poll();
    if (!bye.has_value()) usleep(5'000);
  }
  ASSERT_TRUE(bye.has_value());
  EXPECT_EQ(static_cast<uint32_t>(bye->type),
            static_cast<uint32_t>(CtrlType::kGoodbye));

  const std::string json = ReadFileToString(options.report_path);
  ASSERT_FALSE(json.empty());
  EXPECT_TRUE(IsCompleteJsonObject(json)) << "report truncated";
  EXPECT_NE(json.find("\"cluster_server\""), std::string::npos);
  EXPECT_NE(json.find("\"clean_shutdown\":\"true\""), std::string::npos)
      << json.substr(0, 200);
}

TEST_F(ClusterTest, CoordinatorRefusesStrayAndDuplicateHellos) {
  // The coordinator must not trust the rank a Hello names. Its own rank 0,
  // a rank outside the layout and a rank already identified are refused:
  // the connection is closed and does not count as a member. Two server
  // ranks are expected but only rank 1 says a genuine Hello, so the
  // membership never completes, nobody is welcomed, and the coordinator
  // gives up at its deadline with exit code 3.
  ClusterLayout layout = MakeLayout();
  layout.server_ranks = 2;
  layout.client_ranks = 0;
  const uint16_t port = ReserveControlPort();
  ClusterCoordinator::Options options;
  static_cast<ClusterMemberOptions&>(options) = MemberOptions(layout, 0, port);
  options.deadline_ms = 2'000;
  ClusterCoordinator coordinator(options);
  std::atomic<int> code{-1};
  std::thread runner([&] { code = coordinator.Run(); });

  const auto say_hello = [&](uint32_t rank) {
    ControlConn conn;
    for (int attempt = 0; attempt < 200; ++attempt) {
      if (ControlConn::Connect(port, &conn).ok()) break;
      usleep(5'000);
    }
    EXPECT_TRUE(conn.valid());
    CtrlMsg hello;
    hello.type = CtrlType::kHello;
    hello.rank = rank;
    conn.SendMsg(hello);
    return conn;
  };
  ControlConn first = say_hello(1);
  ControlConn second = say_hello(1);
  ControlConn stray = say_hello(99);
  ControlConn own_rank = say_hello(0);
  ControlConn* const conns[] = {&first, &second, &stray, &own_rank};

  bool welcomed = false;
  const auto poll_all = [&] {
    for (ControlConn* conn : conns) {
      while (std::optional<CtrlMsg> msg = conn->Poll()) {
        if (msg->type == CtrlType::kWelcome) welcomed = true;
      }
    }
  };
  // Whichever rank-1 Hello arrives second is the duplicate.
  const auto refused = [&] {
    return stray.closed() && own_rank.closed() &&
           first.closed() != second.closed();
  };
  while (!refused() && code.load() == -1) {
    poll_all();
    usleep(5'000);
  }
  EXPECT_TRUE(refused());
  EXPECT_EQ(code.load(), -1) << "the refusals came only with the exit";
  while (code.load() == -1) {
    poll_all();
    usleep(5'000);
  }
  runner.join();
  poll_all();
  EXPECT_FALSE(welcomed);
  EXPECT_EQ(code.load(), 3);
}

TEST_F(ClusterTest, ServerRejectsWelcomeWithUndecodableCode) {
  // A member must not fall back to its local default code — it would mix
  // codes within a bucket group. A Welcome whose code spec does not parse,
  // or whose field is unknown, fails the handshake (exit 3).
  const ClusterLayout layout = MakeLayout();
  for (const bool bad_field : {false, true}) {
    SCOPED_TRACE(bad_field ? "unknown field" : "unparseable code");
    ControlListener listener;
    ASSERT_TRUE(listener.Open(0).ok());
    auto options = MemberOptions(layout, 1, listener.port());
    options.deadline_ms = 20'000;
    ClusterServer server(options, /*rank=*/1);
    int code = -1;
    std::thread runner([&] { code = server.Run(); });

    CtrlMsg hello;
    ControlConn conn = AcceptHello(listener, &hello);
    CtrlMsg welcome = WelcomeFor(layout, hello.endpoint);
    if (bad_field) {
      welcome.field_choice = 7;
    } else {
      welcome.code = "bogus";
    }
    conn.SendMsg(welcome);
    conn.Flush();

    runner.join();
    EXPECT_EQ(code, 3);
  }
}

}  // namespace
}  // namespace lhrs::transport
