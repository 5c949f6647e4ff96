// End-to-end serving stack over real sockets: srv::Server hosting the
// handler tier, comm::Client speaking the framed wire protocol. Covers the
// full verb set, byte-identity of wire exports vs in-process dispatch,
// hostile-frame handling, concurrent client fleets, the shutdown-verb
// callback, and Stop() with live connections (no hangs, no leaked workers —
// the ASan/TSan CI jobs run this file too).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/comm/client.h"
#include "serve/comm/frame.h"
#include "serve/comm/messages.h"
#include "serve/handlers/handlers.h"
#include "serve/service/registry.h"
#include "serve/service/tenant.h"
#include "serve/srv/server.h"
#include "util/socket.h"
#include "util/thread_pool.h"

namespace deepdive::serve {
namespace {

constexpr char kVoteProgram[] = R"(
relation Endorses(src: int, dst: int).
query relation Trusted(p: int).
evidence TrustedLabel(p: int, l: bool) for Trusted.
rule CAND: Trusted(p) :- Endorses(s, p).
factor FE: Trusted(p) :- Endorses(s, p) weight = w(s) semantics = ratio.
)";

comm::Request CreateVoteRequest(const std::string& name) {
  comm::CreateTenantRequest create;
  create.name = name;
  create.program = kVoteProgram;
  create.config.epochs = 5;
  create.data.push_back({"Endorses", "1\t100\n2\t100\n3\t200\n"});
  create.data.push_back({"TrustedLabel", "100\ttrue\n"});
  comm::Request request;
  request.tenant = name;
  request.body = std::move(create);
  return request;
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dispatcher_ = std::make_unique<handlers::Dispatcher>(&registry_);
    srv::ServerOptions options;
    options.listen_address = "127.0.0.1:0";
    options.connection_workers = 4;
    server_ = std::make_unique<srv::Server>(dispatcher_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    server_->Stop();
    registry_.StopAll();
  }

  StatusOr<comm::Response> Call(const comm::Request& request) {
    DD_ASSIGN_OR_RETURN(comm::Client client,
                        comm::Client::Dial(server_->address()));
    return client.Call(request);
  }

  service::TenantRegistry registry_;
  std::unique_ptr<handlers::Dispatcher> dispatcher_;
  std::unique_ptr<srv::Server> server_;
};

TEST_F(ServerTest, FullVerbSetOverTheWire) {
  // create_tenant
  auto created = Call(CreateVoteRequest("vote"));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(created->ok()) << created->message;
  const auto& info = std::get<comm::CreateTenantResult>(created->body);
  EXPECT_EQ(info.epoch, 1u);
  EXPECT_EQ(info.num_variables, 2u);  // Trusted(100), Trusted(200)

  // list_tenants
  comm::Request list;
  list.body = comm::ListTenantsRequest{};
  auto listed = Call(list);
  ASSERT_TRUE(listed.ok() && listed->ok());
  EXPECT_EQ(std::get<comm::ListTenantsResult>(listed->body).names,
            std::vector<std::string>{"vote"});

  // query: relation-level, then tuple-level
  comm::Request query;
  query.tenant = "vote";
  query.body = comm::QueryRequest{"Trusted", "", 0.0};
  auto relation_answer = Call(query);
  ASSERT_TRUE(relation_answer.ok() && relation_answer->ok());
  EXPECT_EQ(std::get<comm::QueryResult>(relation_answer->body).entries, 2u);
  query.body = comm::QueryRequest{"Trusted", "100", 0.0};
  auto tuple_answer = Call(query);
  ASSERT_TRUE(tuple_answer.ok() && tuple_answer->ok());
  const auto& tuple_result = std::get<comm::QueryResult>(tuple_answer->body);
  EXPECT_TRUE(tuple_result.found);
  EXPECT_GT(tuple_result.marginal, 0.9);  // evidence-true variable

  // apply_update: one epoch forward, over the wire
  comm::Request update;
  update.tenant = "vote";
  comm::UpdateRequest update_body;
  update_body.label = "wire-update";
  update_body.inserts.push_back({"Endorses", "4\t300\n"});
  update.body = std::move(update_body);
  auto applied = Call(update);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_TRUE(applied->ok()) << applied->message;
  const auto& report = std::get<comm::UpdateResult>(applied->body);
  EXPECT_EQ(report.epoch, 2u);
  EXPECT_EQ(report.label, "wire-update");

  // status reflects the update
  comm::Request status;
  status.tenant = "vote";
  status.body = comm::StatusRequest{};
  auto stats = Call(status);
  ASSERT_TRUE(stats.ok() && stats->ok());
  const auto& tenants = std::get<comm::StatusResult>(stats->body).tenants;
  ASSERT_EQ(tenants.size(), 1u);
  EXPECT_EQ(tenants[0].epoch, 2u);
  EXPECT_EQ(tenants[0].updates_applied, 1u);
  EXPECT_TRUE(tenants[0].ready);

  // export over the wire is byte-identical to the in-process handler path —
  // the no-protocol-drift guarantee the CLI's run mode depends on.
  comm::Request export_request;
  export_request.tenant = "vote";
  export_request.body = comm::ExportRequest{{}, 0.0};
  auto wire_export = Call(export_request);
  ASSERT_TRUE(wire_export.ok() && wire_export->ok());
  const comm::Response in_process = dispatcher_->Dispatch(export_request);
  ASSERT_TRUE(in_process.ok());
  const auto& wire_chunks = std::get<comm::ExportResult>(wire_export->body);
  const auto& local_chunks = std::get<comm::ExportResult>(in_process.body);
  ASSERT_EQ(wire_chunks.chunks.size(), local_chunks.chunks.size());
  for (size_t i = 0; i < wire_chunks.chunks.size(); ++i) {
    EXPECT_EQ(wire_chunks.chunks[i].relation, local_chunks.chunks[i].relation);
    EXPECT_EQ(wire_chunks.chunks[i].tsv, local_chunks.chunks[i].tsv);
  }
}

TEST_F(ServerTest, PointLookupsMatchTupleTextExactly) {
  auto created = Call(CreateVoteRequest("vote"));
  ASSERT_TRUE(created.ok() && created->ok());
  auto lookup = [&](const std::string& tuple_tsv) {
    comm::Request query;
    query.tenant = "vote";
    query.body = comm::QueryRequest{"Trusted", tuple_tsv, 0.0};
    auto answer = Call(query);
    EXPECT_TRUE(answer.ok() && answer->ok()) << tuple_tsv;
    return answer.ok() ? std::get<comm::QueryResult>(answer->body)
                       : comm::QueryResult{};
  };
  // Present: the served marginal of Trusted(200), which has no label.
  const comm::QueryResult present = lookup("200");
  EXPECT_TRUE(present.found);
  EXPECT_GT(present.marginal, 0.0);
  EXPECT_LT(present.marginal, 1.0);
  // Absent: parses, but no such candidate.
  const comm::QueryResult absent = lookup("300");
  EXPECT_FALSE(absent.found);
  EXPECT_EQ(absent.marginal, 0.5);
  // Malformed: not an int, or the wrong arity — found=false, not an error.
  EXPECT_FALSE(lookup("abc").found);
  EXPECT_FALSE(lookup("200\t1").found);
  // Parses to a served tuple but is not its text: no match.
  EXPECT_FALSE(lookup("0200").found);
}

TEST_F(ServerTest, ErrorsTravelAsResponses) {
  // Unknown tenant: a clean NotFound response, connection stays usable.
  auto client = comm::Client::Dial(server_->address());
  ASSERT_TRUE(client.ok());
  comm::Request query;
  query.tenant = "ghost";
  query.body = comm::QueryRequest{"Trusted", "", 0.0};
  auto response = client->Call(query);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->code, StatusCode::kNotFound);

  // Same connection, next request still answered.
  comm::Request list;
  list.body = comm::ListTenantsRequest{};
  auto listed = client->Call(list);
  ASSERT_TRUE(listed.ok());
  EXPECT_TRUE(listed->ok());

  // Missing required field: InvalidArgument, not a dropped connection.
  query.tenant = "";
  query.body = comm::QueryRequest{"", "", 0.0};
  auto invalid = client->Call(query);
  ASSERT_TRUE(invalid.ok());
  EXPECT_EQ(invalid->code, StatusCode::kInvalidArgument);
}

TEST_F(ServerTest, MalformedFrameGetsErrorResponse) {
  auto connected = Connect(server_->address());
  ASSERT_TRUE(connected.ok());
  const Socket& raw = *connected;
  // A frame whose payload is not a decodable request.
  ASSERT_TRUE(comm::WriteFrame(raw, "\xff\xffgarbage").ok());
  std::string payload;
  ASSERT_TRUE(comm::ReadFrame(raw, &payload).ok());
  auto response = comm::DecodeResponse(payload);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->ok());
}

TEST_F(ServerTest, ConcurrentClientsShareOneTenant) {
  auto created = Call(CreateVoteRequest("vote"));
  ASSERT_TRUE(created.ok() && created->ok());

  constexpr size_t kClients = 8;
  constexpr size_t kCallsPerClient = 10;
  std::vector<Status> outcomes(kClients, Status::OK());
  ThreadPool fleet(kClients, /*inline_when_single=*/false);
  for (size_t c = 0; c < kClients; ++c) {
    fleet.Submit([this, c, &outcomes] {
      // One connection per thread, as the comm::Client contract requires.
      auto client = comm::Client::Dial(server_->address());
      if (!client.ok()) {
        outcomes[c] = client.status();
        return;
      }
      for (size_t i = 0; i < kCallsPerClient; ++i) {
        comm::Request query;
        query.tenant = "vote";
        query.body = comm::QueryRequest{"Trusted", "", 0.0};
        auto response = client->Call(query);
        if (!response.ok()) {
          outcomes[c] = response.status();
          return;
        }
        if (!response->ok()) {
          outcomes[c] = response->ToStatus();
          return;
        }
        const auto& result = std::get<comm::QueryResult>(response->body);
        if (result.epoch < 1) {
          outcomes[c] = Status::Internal("epoch went backwards");
          return;
        }
      }
    });
  }
  fleet.Wait();
  for (size_t c = 0; c < kClients; ++c) {
    EXPECT_TRUE(outcomes[c].ok()) << "client " << c << ": "
                                  << outcomes[c].ToString();
  }
}

TEST_F(ServerTest, ShutdownVerbFiresCallbackAndAnswers) {
  bool drained = false;
  dispatcher_->SetShutdownCallback([&drained] { drained = true; });
  comm::Request shutdown;
  shutdown.body = comm::ShutdownRequest{};
  auto response = Call(shutdown);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response->ok());
  EXPECT_TRUE(drained);
}

TEST_F(ServerTest, StopWithLiveConnectionsDoesNotHang) {
  // Park several connected-but-idle clients, then Stop(): the server must
  // wake its blocked readers and join every worker (the test would time out
  // otherwise; ASan would flag leaked threads).
  std::vector<StatusOr<comm::Client>> parked;
  for (int i = 0; i < 3; ++i) {
    parked.push_back(comm::Client::Dial(server_->address()));
    ASSERT_TRUE(parked.back().ok());
  }
  server_->Stop();
  server_->Stop();  // idempotent
  // New connections are refused or immediately closed after Stop.
  comm::Request list;
  list.body = comm::ListTenantsRequest{};
  auto dead = Call(list);
  EXPECT_FALSE(dead.ok());
}

TEST(ServerStandaloneTest, StartOnBusyPortFailsCleanly) {
  service::TenantRegistry registry;
  handlers::Dispatcher dispatcher(&registry);
  srv::ServerOptions options;
  options.listen_address = "127.0.0.1:0";
  srv::Server first(&dispatcher, options);
  ASSERT_TRUE(first.Start().ok());
  // Second server on the same concrete port must fail Start, not crash.
  srv::ServerOptions clash;
  clash.listen_address = first.address();
  srv::Server second(&dispatcher, clash);
  EXPECT_FALSE(second.Start().ok());
  first.Stop();
}

}  // namespace
}  // namespace deepdive::serve
