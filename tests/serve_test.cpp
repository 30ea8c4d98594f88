/**
 * @file
 * Tests for the serve subsystem (src/serve/): the line-delimited JSON
 * protocol (parse/serialize, malformed-input rejection) and the Server
 * end to end in process — the load-bearing property being that an align
 * served from a persisted index writes a MAF byte-identical to the
 * one-shot pipeline, and that per-request budgets trip with a tagged
 * reason instead of taking the daemon down.
 */
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <sstream>

#include "index/index_io.h"
#include "obs/exposition.h"
#include "obs/flight_recorder.h"
#include "seed/seed_index.h"
#include "seq/fasta.h"
#include "serve/http.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "synth/species.h"
#include "util/strings.h"
#include "wga/maf.h"
#include "wga/pipeline.h"
#include "test_temp_dir.h"

namespace darwin::serve {
namespace {

TEST(Protocol, ParsesPing)
{
    const Request request = parse_request("{\"op\": \"ping\", \"id\": \"7\"}");
    EXPECT_EQ(request.op, Op::Ping);
    EXPECT_EQ(request.id, "7");
}

TEST(Protocol, ParsesNumericIdAndDefaults)
{
    const Request request = parse_request(
        "{\"id\": 12, \"op\": \"align\", \"target\": \"t.fa\", "
        "\"query\": \"q.fa\", \"out\": \"o.maf\"}");
    EXPECT_EQ(request.op, Op::Align);
    EXPECT_EQ(request.id, "12");
    EXPECT_EQ(request.target, "t.fa");
    EXPECT_EQ(request.preset, "darwin");
    EXPECT_TRUE(request.both_strands);
    EXPECT_FALSE(request.no_transitions);
    EXPECT_FALSE(request.has_budget);
    EXPECT_TRUE(request.index.empty());
}

TEST(Protocol, ParsesFullAlign)
{
    const Request request = parse_request(
        "{\"op\": \"align\", \"id\": \"a\", \"target\": \"t.fa\", "
        "\"query\": \"q.fa\", \"out\": \"o.maf\", \"index\": \"t.dwi\", "
        "\"preset\": \"lastz\", \"both_strands\": false, "
        "\"no_transitions\": true, \"budget\": {\"wall_seconds\": 1.5, "
        "\"max_cells\": 100, \"max_heap_bytes\": 4096}}");
    EXPECT_EQ(request.index, "t.dwi");
    EXPECT_EQ(request.preset, "lastz");
    EXPECT_FALSE(request.both_strands);
    EXPECT_TRUE(request.no_transitions);
    ASSERT_TRUE(request.has_budget);
    EXPECT_DOUBLE_EQ(request.budget.wall_seconds, 1.5);
    EXPECT_EQ(request.budget.max_cells, 100u);
    EXPECT_EQ(request.budget.max_heap_bytes, 4096u);
}

TEST(Protocol, IgnoresUnknownKeys)
{
    const Request request = parse_request(
        "{\"op\": \"ping\", \"id\": \"1\", \"future_field\": null, "
        "\"another\": 3.5}");
    EXPECT_EQ(request.op, Op::Ping);
}

TEST(Protocol, RejectsMalformedLines)
{
    EXPECT_THROW(parse_request(""), ProtocolError);
    EXPECT_THROW(parse_request("not json"), ProtocolError);
    EXPECT_THROW(parse_request("{\"op\": \"ping\""), ProtocolError);
    EXPECT_THROW(parse_request("{\"id\": \"1\"}"), ProtocolError);
    EXPECT_THROW(parse_request("{\"op\": \"reticulate\"}"), ProtocolError);
    EXPECT_THROW(parse_request("{\"op\": \"ping\"} trailing"),
                 ProtocolError);
    // align without its required paths
    EXPECT_THROW(parse_request("{\"op\": \"align\", \"id\": \"1\"}"),
                 ProtocolError);
    // wrong value types
    EXPECT_THROW(parse_request("{\"op\": 3}"), ProtocolError);
    EXPECT_THROW(parse_request("{\"op\": \"align\", \"target\": true, "
                               "\"query\": \"q\", \"out\": \"o\"}"),
                 ProtocolError);
    // negative budget axis
    EXPECT_THROW(
        parse_request("{\"op\": \"align\", \"target\": \"t\", "
                      "\"query\": \"q\", \"out\": \"o\", "
                      "\"budget\": {\"max_cells\": -1}}"),
        ProtocolError);
}

TEST(Protocol, SerializesOkAndErrorResponses)
{
    Response ok;
    ok.id = "9";
    ok.add_string("op", "ping");
    ok.add_int("n", 3);
    EXPECT_EQ(serialize_response(ok),
              "{\"id\": \"9\", \"status\": \"ok\", \"op\": \"ping\", "
              "\"n\": 3}");

    const Response err = error_response("9", "cells", "over \"budget\"");
    const std::string line = serialize_response(err);
    EXPECT_NE(line.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(line.find("\"reason\": \"cells\""), std::string::npos);
    // The message is JSON-quoted, embedded quotes escaped.
    EXPECT_NE(line.find("over \\\"budget\\\""), std::string::npos);
}

/**
 * One synthetic species pair written to FASTA files, its persisted
 * index, and the one-shot pipeline's MAF as the byte-level reference.
 * Built once; the Server tests all align the same pair.
 */
struct ServeFixture {
    testing::ScopedTempDir tmp;
    std::string target_path;
    std::string query_path;
    std::string index_path;
    std::string reference_maf;

    ServeFixture()
    {
        synth::AncestorConfig shape;
        shape.num_chromosomes = 1;
        shape.chromosome_length = 8'000;
        shape.exons_per_chromosome = 4;
        const auto pair = synth::make_species_pair(
            synth::paper_species_pairs().front(), shape, 4242);

        // ctest runs each test as its own process, possibly in
        // parallel; the fixture's own directory keeps concurrent Server
        // tests off one another's index/FASTA files.
        target_path = tmp.path("target.fa");
        query_path = tmp.path("query.fa");
        index_path = tmp.path("target.dwi");
        reference_maf = tmp.path("reference.maf");
        seq::write_genome_file(target_path, pair.target.genome);
        seq::write_genome_file(query_path, pair.query.genome);

        const wga::WgaParams params = wga::WgaParams::darwin_defaults();
        const seq::Sequence& flat = pair.target.genome.flattened();
        const seed::SeedIndex index(flat,
                                    seed::SeedPattern(params.seed_pattern));
        index::save_index(index_path, index, index::sequence_digest(flat),
                          flat.size());

        const wga::WgaPipeline pipeline(params);
        const auto result =
            pipeline.run(pair.target.genome, pair.query.genome);
        wga::write_maf_file(reference_maf, result.alignments,
                            pair.target.genome, pair.query.genome);
    }
};

const ServeFixture&
fixture()
{
    static const ServeFixture instance;
    return instance;
}

std::string
slurp(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

std::string
align_line(const std::string& id, const std::string& out,
           const std::string& extra = "")
{
    const auto& f = fixture();
    return strprintf("{\"op\": \"align\", \"id\": %s, \"target\": %s, "
                     "\"query\": %s, \"out\": %s%s}",
                     json_quote(id).c_str(),
                     json_quote(f.target_path).c_str(),
                     json_quote(f.query_path).c_str(),
                     json_quote(out).c_str(), extra.c_str());
}

TEST(Server, PingAndStatus)
{
    Server server(ServerOptions{});
    const std::string pong =
        server.handle_line("{\"op\": \"ping\", \"id\": \"p\"}");
    EXPECT_EQ(pong,
              "{\"id\": \"p\", \"status\": \"ok\", \"op\": \"ping\"}");

    const std::string status =
        server.handle_line("{\"op\": \"status\", \"id\": \"s\"}");
    EXPECT_NE(status.find("\"status\": \"ok\""), std::string::npos);
    EXPECT_NE(status.find("\"requests\": 2"), std::string::npos);
    EXPECT_NE(status.find("\"workers\": 2"), std::string::npos);
}

TEST(Server, MalformedLineAnswersBadRequest)
{
    Server server(ServerOptions{});
    const std::string resp = server.handle_line("{\"op\": 42}");
    EXPECT_NE(resp.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(resp.find("\"reason\": \"bad_request\""),
              std::string::npos);
}

TEST(Server, AlignFromPersistedIndexIsByteIdenticalToOneShot)
{
    const auto& f = fixture();
    const std::string out = testing::temp_path("serve_indexed.maf");
    Server server(ServerOptions{});
    const std::string resp = server.handle_line(align_line(
        "i1", out,
        strprintf(", \"index\": %s", json_quote(f.index_path).c_str())));
    ASSERT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"index_cache_hit\": false"), std::string::npos);
    EXPECT_EQ(slurp(out), slurp(f.reference_maf));

    // Second align of the same target hits the resident index and still
    // produces the same bytes.
    const std::string out2 = testing::temp_path("serve_cached.maf");
    const std::string resp2 = server.handle_line(align_line("i2", out2));
    ASSERT_NE(resp2.find("\"status\": \"ok\""), std::string::npos)
        << resp2;
    EXPECT_NE(resp2.find("\"index_cache_hit\": true"), std::string::npos);
    EXPECT_EQ(slurp(out2), slurp(f.reference_maf));
}

TEST(Server, AlignRebuildingIndexIsByteIdenticalToOneShot)
{
    const auto& f = fixture();
    const std::string out = testing::temp_path("serve_rebuilt.maf");
    Server server(ServerOptions{});
    const std::string resp = server.handle_line(align_line("r1", out));
    ASSERT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    EXPECT_EQ(slurp(out), slurp(f.reference_maf));
}

TEST(Server, MismatchedIndexIsRejectedNotServed)
{
    // An index built from the query sequence must be refused for the
    // target (digest mismatch), not silently produce garbage.
    const auto& f = fixture();
    const std::string wrong_index = testing::temp_path("serve_wrong.dwi");
    const auto query = seq::read_genome(f.query_path);
    const seq::Sequence& flat = query.flattened();
    const wga::WgaParams params = wga::WgaParams::darwin_defaults();
    const seed::SeedIndex index(flat,
                                seed::SeedPattern(params.seed_pattern));
    index::save_index(wrong_index, index, index::sequence_digest(flat),
                      flat.size());

    Server server(ServerOptions{});
    const std::string out = testing::temp_path("serve_never.maf");
    const std::string resp = server.handle_line(align_line(
        "w1", out,
        strprintf(", \"index\": %s", json_quote(wrong_index).c_str())));
    EXPECT_NE(resp.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(resp.find("different sequence"), std::string::npos) << resp;
}

TEST(Server, CellBudgetTripsWithTaggedReason)
{
    Server server(ServerOptions{});
    const std::string out = testing::temp_path("serve_budget.maf");
    const std::string resp = server.handle_line(align_line(
        "b1", out, ", \"budget\": {\"max_cells\": 1}"));
    EXPECT_NE(resp.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(resp.find("\"reason\": \"cells\""), std::string::npos)
        << resp;
    // The tripped request must not poison the server: the next align
    // with no budget succeeds.
    const std::string resp2 = server.handle_line(align_line("b2", out));
    EXPECT_NE(resp2.find("\"status\": \"ok\""), std::string::npos)
        << resp2;
}

TEST(Server, DefaultBudgetAppliesWhenRequestHasNone)
{
    ServerOptions options;
    options.default_budget.max_cells = 1;
    Server server(options);
    const std::string out = testing::temp_path("serve_default.maf");
    const std::string resp = server.handle_line(align_line("d1", out));
    EXPECT_NE(resp.find("\"reason\": \"cells\""), std::string::npos)
        << resp;
}

TEST(Server, StreamServesInOrderAndShutsDownOnOp)
{
    std::istringstream in("{\"op\": \"ping\", \"id\": \"1\"}\n"
                          "\n"
                          "{\"op\": \"shutdown\", \"id\": \"2\"}\n");
    std::ostringstream out;
    Server server(ServerOptions{});
    server.serve_stream(in, out);
    // The shutdown op was handled (asynchronously) before serve_stream
    // drained, so the server is stopping by the time it returns.
    EXPECT_TRUE(server.stopping());
    server.stop();

    const std::string output = out.str();
    EXPECT_NE(output.find("\"id\": \"1\""), std::string::npos);
    EXPECT_NE(output.find("\"op\": \"shutdown\""), std::string::npos);
}

TEST(Server, SubmitRefusedAfterStop)
{
    Server server(ServerOptions{});
    server.stop();
    EXPECT_FALSE(server.submit("{\"op\": \"ping\", \"id\": \"x\"}",
                               [](const std::string&) {}));
}

TEST(Protocol, ParsesStatsAndDumpTrace)
{
    EXPECT_EQ(parse_request("{\"op\": \"stats\", \"id\": \"s\"}").op,
              Op::Stats);
    const Request dump = parse_request(
        "{\"op\": \"dump_trace\", \"id\": \"t\", \"out\": \"f.json\"}");
    EXPECT_EQ(dump.op, Op::DumpTrace);
    EXPECT_EQ(dump.out, "f.json");
    // dump_trace without a destination is malformed.
    EXPECT_THROW(parse_request("{\"op\": \"dump_trace\", \"id\": \"t\"}"),
                 ProtocolError);
}

TEST(Server, StatsReturnsTheMetricsSnapshotAsJson)
{
    Server server(ServerOptions{});
    server.handle_line("{\"op\": \"ping\", \"id\": \"1\"}");
    const std::string resp =
        server.handle_line("{\"op\": \"stats\", \"id\": \"s\"}");
    EXPECT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    // The registry rides embedded as structured JSON, not a quoted blob:
    // the counters the ping bumped are visible inside it.
    EXPECT_NE(resp.find("\"metrics\": {"), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"serve.requests\": 2"), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\"serve.request.seconds\""), std::string::npos)
        << resp;
    EXPECT_NE(resp.find("\"buckets\""), std::string::npos) << resp;
    // One line, as the wire format requires.
    EXPECT_EQ(resp.find('\n'), std::string::npos);

    // The same registry renders as Prometheus text for GET /metrics.
    const std::string prom = obs::to_prometheus(server.metrics());
    EXPECT_NE(prom.find("serve_requests_total"), std::string::npos);
    EXPECT_NE(prom.find("serve_request_seconds_bucket{le=\"+Inf\"}"),
              std::string::npos);
}

TEST(Server, DumpTraceWithoutASessionAnswersBadRequest)
{
    Server server(ServerOptions{});
    const std::string resp = server.handle_line(
        "{\"op\": \"dump_trace\", \"id\": \"t\", \"out\": \"/tmp/x\"}");
    EXPECT_NE(resp.find("\"status\": \"error\""), std::string::npos);
    EXPECT_NE(resp.find("\"reason\": \"bad_request\""), std::string::npos)
        << resp;
}

TEST(Server, DumpTraceWritesAParseableChromeTraceWithRequestTags)
{
    fixture();  // make sure the shared inputs exist before recording
    obs::FlightRecorder flight(1024);
    obs::TraceSession::install(&flight);

    Server server(ServerOptions{});
    server.set_trace_session(&flight);
    const std::string out = testing::temp_path("serve_tagged.maf");
    const std::string align_resp =
        server.handle_line(align_line("a1", out));
    ASSERT_NE(align_resp.find("\"status\": \"ok\""), std::string::npos)
        << align_resp;

    const std::string trace_path =
        testing::temp_path("serve_flight.trace.json");
    const std::string resp = server.handle_line(strprintf(
        "{\"op\": \"dump_trace\", \"id\": \"t\", \"out\": %s}",
        json_quote(trace_path).c_str()));
    obs::TraceSession::install(nullptr);
    ASSERT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    EXPECT_NE(resp.find("\"events\": "), std::string::npos);
    EXPECT_NE(resp.find("\"dropped\": 0"), std::string::npos) << resp;

    const auto events = obs::parse_trace_events(slurp(trace_path));
    ASSERT_FALSE(events.empty());
    // The align's pipeline spans are all tagged with its request id,
    // and the umbrella "pipeline" span groups them.
    bool saw_pipeline = false;
    std::size_t tagged = 0;
    for (const auto& event : events) {
        if (event.name == "pipeline" && event.category == "wga")
            saw_pipeline = true;
        for (const auto& arg : event.args)
            if (arg.key == "req")
                ++tagged;
    }
    EXPECT_TRUE(saw_pipeline);
    EXPECT_GT(tagged, 0u);
}

TEST(Server, MafIsByteIdenticalWithAllTelemetryEnabled)
{
    // Flight recorder armed, slow-request logging forced on for every
    // request, stats scrapes interleaved: none of it may change the
    // served bytes.
    const auto& f = fixture();
    obs::FlightRecorder flight(4096);
    obs::TraceSession::install(&flight);

    ServerOptions options;
    options.slow_request_seconds = 1e-9;  // everything is "slow"
    Server server(options);
    server.set_trace_session(&flight);

    const std::string out = testing::temp_path("serve_telemetry.maf");
    server.handle_line("{\"op\": \"stats\", \"id\": \"s0\"}");
    const std::string resp = server.handle_line(align_line(
        "t1", out,
        strprintf(", \"index\": %s", json_quote(f.index_path).c_str())));
    server.handle_line("{\"op\": \"stats\", \"id\": \"s1\"}");
    obs::TraceSession::install(nullptr);

    ASSERT_NE(resp.find("\"status\": \"ok\""), std::string::npos) << resp;
    EXPECT_EQ(slurp(out), slurp(f.reference_maf));
    EXPECT_GT(flight.recorded(), 0u);
    const obs::Counter* slow =
        server.metrics().find_counter("serve.slow_requests");
    ASSERT_NE(slow, nullptr);
    EXPECT_EQ(slow->value(), 1u);
}

/** Minimal blocking HTTP GET against 127.0.0.1:port. */
std::string
http_get(int port, const std::string& path)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        return {};
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
        ::close(fd);
        return {};
    }
    const std::string request =
        "GET " + path + " HTTP/1.1\r\nHost: localhost\r\n\r\n";
    (void)!::write(fd, request.data(), request.size());
    std::string response;
    char chunk[4096];
    ssize_t n;
    while ((n = ::read(fd, chunk, sizeof(chunk))) > 0)
        response.append(chunk, static_cast<std::size_t>(n));
    ::close(fd);
    return response;
}

TEST(Http, ServesMetricsHealthzStatuszAndRejectsTheRest)
{
    obs::MetricsRegistry metrics;
    metrics.counter("serve.requests").add(5);
    bool healthy = true;
    HttpHandlers handlers;
    handlers.metrics_text = [&metrics] {
        return obs::to_prometheus(metrics);
    };
    handlers.healthy = [&healthy] { return healthy; };
    handlers.statusz_json = [] {
        return std::string("{\"version\": \"test\"}");
    };
    HttpMetricsServer http(0, std::move(handlers));
    ASSERT_GT(http.port(), 0);

    const std::string metrics_resp = http_get(http.port(), "/metrics");
    EXPECT_NE(metrics_resp.find("200 OK"), std::string::npos);
    EXPECT_NE(metrics_resp.find("text/plain; version=0.0.4"),
              std::string::npos);
    EXPECT_NE(metrics_resp.find("serve_requests_total 5"),
              std::string::npos);

    EXPECT_NE(http_get(http.port(), "/healthz").find("200 OK"),
              std::string::npos);
    healthy = false;
    EXPECT_NE(http_get(http.port(), "/healthz").find("503"),
              std::string::npos);

    const std::string statusz = http_get(http.port(), "/statusz");
    EXPECT_NE(statusz.find("application/json"), std::string::npos);
    EXPECT_NE(statusz.find("\"version\": \"test\""), std::string::npos);

    EXPECT_NE(http_get(http.port(), "/nope").find("404"),
              std::string::npos);
    http.stop();
}

}  // namespace
}  // namespace darwin::serve
