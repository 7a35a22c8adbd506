// The `network` label: the versioned wire protocol and the TCP query
// server/client built on it. Three layers of coverage:
//
//  * codec properties — random requests/results round-trip bit-identical,
//    truncation at every byte is rejected, random bytes never crash the
//    decoders, and a v(N+1) frame with unknown trailing fields decodes
//    on this build (the forward-compatibility contract);
//  * the Status <-> wire error-code table stays a bijection;
//  * loopback end-to-end — a remote query returns the bit-identical
//    QueryResult of the embedded QueryService for every access path,
//    wire deadlines are enforced server-side, and a dropped client
//    cancels its in-flight query via the disconnect watcher.
//
// The binary is meant to also run under TSan (cmake -DMMDB_SANITIZE=thread,
// then `ctest -L network`).

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "core/cancel.h"
#include "core/database.h"
#include "core/plan.h"
#include "core/query_service.h"
#include "datasets/augment.h"
#include "gtest/gtest.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/status_codes.h"
#include "storage/env.h"
#include "test_util.h"
#include "util/random.h"
#include "util/stopwatch.h"
#include "util/wire.h"

namespace mmdb {
namespace {

using net::Client;
using net::Frame;
using net::FrameType;
using net::ParseFrame;
using net::QueryServer;
using net::ServerOptions;

using mmdb::testing::RemoveStoreFiles;
using mmdb::testing::TempPath;

RangeQuery RandomRange(Rng& rng) {
  RangeQuery range;
  range.bin = static_cast<BinIndex>(rng.UniformInt(0, 63));
  range.min_fraction = rng.UniformDouble(0.0, 0.5);
  range.max_fraction = rng.UniformDouble(0.5, 1.0);
  return range;
}

SimilarityQuery RandomSimilarity(Rng& rng) {
  SimilarityQuery similarity;
  similarity.histogram = ColorHistogram(64);
  const int occupied = rng.UniformInt(1, 4);
  for (int i = 0; i < occupied; ++i) {
    similarity.histogram.Add(static_cast<BinIndex>(rng.UniformInt(0, 63)),
                             rng.UniformInt(1, 100));
  }
  similarity.k = static_cast<uint32_t>(rng.UniformInt(1, 25));
  return similarity;
}

QueryRequest RandomRequest(Rng& rng, bool allow_similarity = true) {
  constexpr QueryMethod kMethods[] = {
      QueryMethod::kInstantiate, QueryMethod::kRbm, QueryMethod::kBwm,
      QueryMethod::kBwmIndexed, QueryMethod::kParallelRbm};
  QueryRequest request;
  request.method = kMethods[rng.UniformInt(0, 4)];
  const int shape = rng.UniformInt(0, allow_similarity ? 2 : 1);
  if (shape == 0) {
    request.payload = RandomRange(rng);
  } else if (shape == 1) {
    ConjunctiveQuery conjunctive;
    const int conjuncts = rng.UniformInt(1, 4);
    for (int i = 0; i < conjuncts; ++i) {
      conjunctive.conjuncts.push_back(RandomRange(rng));
    }
    request.payload = conjunctive;
  } else {
    request.payload = RandomSimilarity(rng);
  }
  if (rng.UniformInt(0, 2) == 0) {
    request.deadline = Deadline::After(rng.UniformDouble(10.0, 100.0));
  }
  return request;
}

void ExpectSameQuery(const QueryRequest& a, const QueryRequest& b) {
  EXPECT_EQ(a.method, b.method);
  ASSERT_EQ(a.kind(), b.kind());
  if (const RangeQuery* range = a.range()) {
    EXPECT_EQ(range->bin, b.range()->bin);
    EXPECT_EQ(range->min_fraction, b.range()->min_fraction);
    EXPECT_EQ(range->max_fraction, b.range()->max_fraction);
  }
  if (const ConjunctiveQuery* conjunctive = a.conjunctive()) {
    ASSERT_EQ(conjunctive->conjuncts.size(),
              b.conjunctive()->conjuncts.size());
    for (size_t i = 0; i < conjunctive->conjuncts.size(); ++i) {
      EXPECT_EQ(conjunctive->conjuncts[i].bin,
                b.conjunctive()->conjuncts[i].bin);
      EXPECT_EQ(conjunctive->conjuncts[i].min_fraction,
                b.conjunctive()->conjuncts[i].min_fraction);
      EXPECT_EQ(conjunctive->conjuncts[i].max_fraction,
                b.conjunctive()->conjuncts[i].max_fraction);
    }
  }
  if (const SimilarityQuery* similarity = a.similarity()) {
    EXPECT_EQ(similarity->k, b.similarity()->k);
    ASSERT_EQ(similarity->histogram.BinCount(),
              b.similarity()->histogram.BinCount());
    for (BinIndex bin = 0; bin < similarity->histogram.BinCount(); ++bin) {
      EXPECT_EQ(similarity->histogram.Count(bin),
                b.similarity()->histogram.Count(bin));
    }
  }
  EXPECT_EQ(a.deadline.IsInfinite(), b.deadline.IsInfinite());
}

// --- Codec round trips --------------------------------------------------

TEST(WireProtocolTest, ExecuteRequestRoundTripsRandomRequests) {
  Rng rng(20060101);
  for (int i = 0; i < 200; ++i) {
    const QueryRequest request = RandomRequest(rng);
    const std::string payload = net::EncodeExecuteRequest(request);
    const Result<Frame> frame = ParseFrame(payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->type(), FrameType::kExecuteRequest);
    const Result<QueryRequest> decoded = net::DecodeExecuteRequest(*frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ExpectSameQuery(request, *decoded);
    if (!request.deadline.IsInfinite()) {
      // The deadline travels as remaining milliseconds: what arrives
      // must be no later than what was sent, and still un-expired (the
      // generated deadlines are 10-100s out; anything tighter flakes
      // when a sanitized -j run starves this loop for seconds).
      EXPECT_LE(decoded->deadline.RemainingSeconds(),
                request.deadline.RemainingSeconds() + 0.001);
      EXPECT_GT(decoded->deadline.RemainingSeconds(), 0.0);
    }
  }
}

TEST(WireProtocolTest, ResultChunkAndDoneRoundTrip) {
  Rng rng(7);
  std::vector<ObjectId> ids;
  for (int i = 0; i < 1500; ++i) {
    ids.push_back(static_cast<ObjectId>(rng.UniformInt(1, 1 << 30)));
  }
  std::vector<ObjectId> decoded;
  const std::string chunk = net::EncodeResultChunk(ids);
  const Result<Frame> frame = ParseFrame(chunk);
  ASSERT_TRUE(frame.ok());
  ASSERT_TRUE(net::DecodeResultChunk(*frame, &decoded).ok());
  EXPECT_EQ(decoded, ids);

  QueryStats stats;
  stats.binary_images_checked = 11;
  stats.edited_images_bounded = 22;
  stats.edited_images_skipped = 33;
  stats.rules_applied = 44;
  stats.images_instantiated = 55;
  stats.corrupt_images_skipped = 66;
  const std::string done_payload = net::EncodeResultDone(stats, ids.size());
  const Result<Frame> done_frame = ParseFrame(done_payload);
  ASSERT_TRUE(done_frame.ok());
  const Result<net::ResultDone> done = net::DecodeResultDone(*done_frame);
  ASSERT_TRUE(done.ok());
  EXPECT_EQ(done->total_ids, ids.size());
  EXPECT_EQ(done->stats.binary_images_checked, 11);
  EXPECT_EQ(done->stats.edited_images_bounded, 22);
  EXPECT_EQ(done->stats.edited_images_skipped, 33);
  EXPECT_EQ(done->stats.rules_applied, 44);
  EXPECT_EQ(done->stats.images_instantiated, 55);
  EXPECT_EQ(done->stats.corrupt_images_skipped, 66);
}

TEST(WireProtocolTest, IntervalTrailerRoundTripsBitPatterns) {
  QueryStats stats;
  stats.binary_images_checked = 3;
  std::vector<SimilarityMatch> matches(3);
  matches[0].distance_lo = 0.0;
  matches[0].distance_hi = 0.0;
  matches[0].exact = true;
  matches[1].distance_lo = 0.12345678901234567;  // Needs all 53 bits.
  matches[1].distance_hi = 1.9999999999999998;
  matches[2].distance_lo = 2.0 / 3.0;
  matches[2].distance_hi = 2.0;
  const std::string payload =
      net::EncodeResultDone(stats, matches.size(), matches);
  const Result<Frame> frame = ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  const Result<net::ResultDone> done = net::DecodeResultDone(*frame);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  ASSERT_EQ(done->matches.size(), matches.size());
  for (size_t i = 0; i < matches.size(); ++i) {
    // Bit-for-bit: intervals travel as raw IEEE-754 patterns.
    EXPECT_EQ(done->matches[i].distance_lo, matches[i].distance_lo);
    EXPECT_EQ(done->matches[i].distance_hi, matches[i].distance_hi);
    EXPECT_EQ(done->matches[i].exact, matches[i].exact);
  }

  // A torn trailer (not a multiple of 17 bytes) is rejected.
  WireWriter w;
  w.PutU32(net::kMagic);
  w.PutU16(net::kProtocolVersion);
  w.PutU16(static_cast<uint16_t>(FrameType::kResultDone));
  w.PutField(net::tag::kIntervals, std::string(16, '\0'));
  const Result<Frame> bad = ParseFrame(w.data());
  ASSERT_TRUE(bad.ok());
  EXPECT_FALSE(net::DecodeResultDone(*bad).ok());
}

TEST(WireProtocolTest, ExplainResponseRoundTrips) {
  const std::string plan =
      "query plan (2 predicates over 30 binary + 70 edited images)\n"
      "  1. scan   color(5) between 0.5 and 1\n";
  const std::string payload = net::EncodeExplainResponse(plan);
  const Result<Frame> frame = ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  EXPECT_EQ(frame->type(), FrameType::kExplainResponse);
  const Result<std::string> decoded = net::DecodeExplainResponse(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(*decoded, plan);

  // An explain request reuses the execute schema under its own type.
  QueryRequest request;
  request.payload = RangeQuery{};
  const std::string explain_payload = net::EncodeExplainRequest(request);
  const Result<Frame> explain_frame = ParseFrame(explain_payload);
  ASSERT_TRUE(explain_frame.ok());
  EXPECT_EQ(explain_frame->type(), FrameType::kExplainRequest);
  EXPECT_TRUE(net::DecodeExecuteRequest(*explain_frame).ok());
}

TEST(WireProtocolTest, ErrorFrameCarriesTypedStatus) {
  const Status original =
      Status::DeadlineExceeded("query ran past its deadline");
  const std::string payload = net::EncodeError(original);
  const Result<Frame> frame = ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  Status carried;
  ASSERT_TRUE(net::DecodeError(*frame, &carried).ok());
  EXPECT_EQ(carried.code(), StatusCode::kDeadlineExceeded);
  EXPECT_EQ(carried.message(), original.message());
}

TEST(WireProtocolTest, InfoResponseRoundTrips) {
  net::ServerInfo info;
  info.quantizer_divisions = 4;
  info.color_space = 1;
  info.image_count = 4242;
  const std::string payload = net::EncodeInfoResponse(info);
  const Result<Frame> frame = ParseFrame(payload);
  ASSERT_TRUE(frame.ok());
  const Result<net::ServerInfo> decoded = net::DecodeInfoResponse(*frame);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->quantizer_divisions, 4);
  EXPECT_EQ(decoded->color_space, 1);
  EXPECT_EQ(decoded->image_count, 4242u);
  EXPECT_EQ(decoded->protocol_version, net::kProtocolVersion);
}

TEST(StatusCodeMappingTest, EveryStatusCodeRoundTripsThroughTheWire) {
  // Exhaustive over the enum: a StatusCode added without extending the
  // wire table fails ToWireCode's switch at build time; this test pins
  // the run-time bijection for the codes that exist today.
  constexpr StatusCode kAll[] = {
      StatusCode::kOk,           StatusCode::kInvalidArgument,
      StatusCode::kNotFound,     StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,   StatusCode::kCorruption,
      StatusCode::kIoError,      StatusCode::kResourceExhausted,
      StatusCode::kNotSupported, StatusCode::kInternal,
      StatusCode::kDeadlineExceeded, StatusCode::kCancelled,
      StatusCode::kDataLoss};
  for (StatusCode code : kAll) {
    const net::WireStatusCode wire = net::ToWireCode(code);
    EXPECT_NE(wire, net::WireStatusCode::kUnknown);
    EXPECT_EQ(net::FromWireCode(static_cast<uint16_t>(wire)), code);
  }
  // A code minted by a newer peer decodes as Internal, not garbage.
  EXPECT_EQ(net::FromWireCode(999), StatusCode::kInternal);
  const Status carried = net::StatusFromWire(999, "future failure");
  EXPECT_EQ(carried.code(), StatusCode::kInternal);
  EXPECT_NE(carried.message().find("future failure"), std::string::npos);
}

// --- Forward compatibility ----------------------------------------------

TEST(WireProtocolTest, NewerVersionWithUnknownFieldsStillDecodes) {
  // A v(N+1) peer: bumped version header, the fields this build knows,
  // plus two appended fields with tags this build has never seen.
  QueryRequest request;
  request.method = QueryMethod::kBwm;
  RangeQuery range;
  range.bin = 9;
  range.min_fraction = 0.25;
  range.max_fraction = 1.0;
  request.payload = range;
  std::string payload =
      net::EncodeExecuteRequest(request, net::kProtocolVersion + 1);
  WireWriter extra;
  extra.PutField(900, "future-feature");
  extra.PutField(901, std::string(64, '\xee'));
  payload += extra.data();

  const Result<Frame> frame = ParseFrame(payload);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->version, net::kProtocolVersion + 1);
  const Result<QueryRequest> decoded = net::DecodeExecuteRequest(*frame);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectSameQuery(request, *decoded);
}

TEST(WireProtocolTest, LongerStatsBlobFromNewerPeerDecodesKnownPrefix) {
  // A newer peer appended two counters to the stats blob; this build
  // reads the prefix it knows and ignores the tail.
  WireWriter w;
  w.PutU32(net::kMagic);
  w.PutU16(net::kProtocolVersion + 1);
  w.PutU16(static_cast<uint16_t>(FrameType::kResultDone));
  {
    WireWriter f;
    for (int64_t counter = 1; counter <= 8; ++counter) f.PutI64(counter);
    w.PutField(net::tag::kStats, f.data());
  }
  {
    WireWriter f;
    f.PutU64(5);
    w.PutField(net::tag::kTotalIds, f.data());
  }
  const Result<Frame> frame = ParseFrame(w.data());
  ASSERT_TRUE(frame.ok());
  const Result<net::ResultDone> done = net::DecodeResultDone(*frame);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(done->stats.binary_images_checked, 1);
  EXPECT_EQ(done->stats.corrupt_images_skipped, 6);
  EXPECT_EQ(done->total_ids, 5u);
}

TEST(WireProtocolTest, OlderMinimumVersionIsRejected) {
  WireWriter w;
  w.PutU32(net::kMagic);
  w.PutU16(0);  // Below kMinProtocolVersion.
  w.PutU16(static_cast<uint16_t>(FrameType::kPing));
  const Result<Frame> frame = ParseFrame(w.data());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
}

// --- Malformed input ----------------------------------------------------

TEST(WireProtocolTest, TruncationAtEveryByteIsRejectedNotCrashed) {
  Rng rng(99);
  const QueryRequest request = RandomRequest(rng);
  const std::string payload = net::EncodeExecuteRequest(request);
  for (size_t len = 0; len < payload.size(); ++len) {
    const std::string_view prefix(payload.data(), len);
    const Result<Frame> frame = ParseFrame(prefix);
    if (!frame.ok()) continue;  // Header itself truncated.
    // Header survived; the field walk must reject the torn tail (except
    // at field boundaries, where a shorter-but-valid request can be
    // missing required fields instead).
    const Result<QueryRequest> decoded = net::DecodeExecuteRequest(*frame);
    if (decoded.ok()) {
      ExpectSameQuery(request, *decoded);  // Only the full payload decodes.
      EXPECT_EQ(len, payload.size());
    }
  }
}

TEST(WireProtocolTest, NaNFractionBoundIsRejected) {
  // A peer's bytes may hold any f64; no window has a NaN end.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<QueryRequest> requests = {
      QueryRequest::Range(RangeQuery{3, nan, 1.0}, QueryMethod::kBwm),
      QueryRequest::Conjunctive(
          ConjunctiveQuery{{RangeQuery{3, 0.0, 1.0}, RangeQuery{4, 0.0, nan}}},
          QueryMethod::kRbm)};
  for (const QueryRequest& request : requests) {
    const std::string payload = net::EncodeExecuteRequest(request);
    const Result<Frame> frame = ParseFrame(payload);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(net::DecodeExecuteRequest(*frame).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(WireProtocolTest, RandomBytesNeverCrashTheDecoders) {
  Rng rng(0xfeedbeef);
  for (int round = 0; round < 2000; ++round) {
    std::string junk(static_cast<size_t>(rng.UniformInt(0, 96)), '\0');
    for (char& c : junk) {
      c = static_cast<char>(rng.UniformInt(0, 255));
    }
    const Result<Frame> frame = ParseFrame(junk);
    if (!frame.ok()) continue;
    // Hand the field region to every decoder; each must refuse or
    // produce something, never read out of bounds (ASan/UBSan verify).
    net::DecodeExecuteRequest(*frame).ok();
    std::vector<ObjectId> ids;
    net::DecodeResultChunk(*frame, &ids).ok();
    net::DecodeResultDone(*frame).ok();
    Status carried;
    net::DecodeError(*frame, &carried).ok();
    net::DecodeInfoResponse(*frame).ok();
  }
}

// --- Loopback end-to-end ------------------------------------------------

/// Server + service + dataset fixture shared by the e2e tests.
class LoopbackTest : public ::testing::Test {
 protected:
  void StartServer(int images, ServerOptions options = {},
                   QueryServiceOptions service_options = {}) {
    db_ = MultimediaDatabase::Open().value();
    datasets::DatasetSpec spec;
    spec.total_images = images;
    spec.edited_fraction = 0.7;
    spec.seed = 77;
    ASSERT_TRUE(datasets::BuildAugmentedDatabase(db_.get(), spec).ok());
    service_ = std::make_unique<QueryService>(db_.get(), service_options);
    server_ = std::make_unique<QueryServer>(db_.get(), service_.get(),
                                            options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  Client Connect() {
    return Client::Connect("127.0.0.1", server_->port()).value();
  }

  std::unique_ptr<MultimediaDatabase> db_;
  std::unique_ptr<QueryService> service_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(LoopbackTest, RemoteResultsAreBitIdenticalToEmbeddedForEveryMethod) {
  StartServer(120);
  Client client = Connect();
  Rng rng(123);
  for (QueryMethod method :
       {QueryMethod::kInstantiate, QueryMethod::kRbm, QueryMethod::kBwm,
        QueryMethod::kBwmIndexed, QueryMethod::kParallelRbm}) {
    for (int round = 0; round < 4; ++round) {
      QueryRequest request = RandomRequest(rng, /*allow_similarity=*/false);
      request.method = method;
      request.deadline = Deadline();  // No deadline: results must match.
      const Result<QueryResult> remote = client.Execute(request);
      const Result<QueryResult> embedded = service_->Execute(request);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      ASSERT_TRUE(embedded.ok());
      // Bit-identical: same ids in the same order, same work counters.
      EXPECT_EQ(remote->ids, embedded->ids) << QueryMethodName(method);
      EXPECT_EQ(remote->stats.binary_images_checked,
                embedded->stats.binary_images_checked);
      EXPECT_EQ(remote->stats.edited_images_bounded,
                embedded->stats.edited_images_bounded);
      EXPECT_EQ(remote->stats.edited_images_skipped,
                embedded->stats.edited_images_skipped);
      EXPECT_EQ(remote->stats.rules_applied, embedded->stats.rules_applied);
      EXPECT_EQ(remote->stats.images_instantiated,
                embedded->stats.images_instantiated);
      EXPECT_EQ(remote->stats.corrupt_images_skipped,
                embedded->stats.corrupt_images_skipped);
    }
  }
}

TEST_F(LoopbackTest, RemoteSimilarityIsBitIdenticalToEmbedded) {
  StartServer(120);
  Client client = Connect();
  Rng rng(456);
  for (int round = 0; round < 6; ++round) {
    QueryRequest request = QueryRequest::Similarity(RandomSimilarity(rng));
    const Result<QueryResult> remote = client.Execute(request);
    const Result<QueryResult> embedded = service_->Execute(request);
    ASSERT_TRUE(remote.ok()) << remote.status().ToString();
    ASSERT_TRUE(embedded.ok()) << embedded.status().ToString();
    EXPECT_EQ(remote->ids, embedded->ids);
    ASSERT_EQ(remote->matches.size(), embedded->matches.size());
    for (size_t i = 0; i < remote->matches.size(); ++i) {
      // Bit-identical intervals: doubles travel as raw IEEE bits.
      EXPECT_EQ(remote->matches[i].id, embedded->matches[i].id);
      EXPECT_EQ(remote->matches[i].distance_lo,
                embedded->matches[i].distance_lo);
      EXPECT_EQ(remote->matches[i].distance_hi,
                embedded->matches[i].distance_hi);
      EXPECT_EQ(remote->matches[i].exact, embedded->matches[i].exact);
    }
    EXPECT_EQ(remote->stats.binary_images_checked,
              embedded->stats.binary_images_checked);
    EXPECT_EQ(remote->stats.edited_images_bounded,
              embedded->stats.edited_images_bounded);
    EXPECT_EQ(remote->stats.rules_applied, embedded->stats.rules_applied);
  }
}

TEST_F(LoopbackTest, ExplainOverTheWireMatchesEmbedded) {
  StartServer(100);
  Client client = Connect();

  // A 3-conjunct query: the remote plan text equals the embedded one.
  ConjunctiveQuery conjunctive;
  for (BinIndex bin : {0, 1, 2}) {
    RangeQuery conjunct;
    conjunct.bin = bin;
    conjunct.min_fraction = bin == 1 ? 0.9 : 0.0;
    conjunct.max_fraction = bin == 1 ? 1.0 : 0.8;
    conjunctive.conjuncts.push_back(conjunct);
  }
  QueryRequest request =
      QueryRequest::Conjunctive(conjunctive, QueryMethod::kPlanned);
  const Result<std::string> remote = client.Explain(request);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const Result<std::string> embedded = ExplainQuery(*db_, request);
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(*remote, *embedded);
  EXPECT_NE(remote->find("query plan"), std::string::npos);

  // Similarity explains too, and the connection stays usable.
  QueryRequest nearest = QueryRequest::Similarity([&] {
    SimilarityQuery query;
    query.histogram = ColorHistogram(db_->quantizer().BinCount());
    query.histogram.Add(3, 1);
    query.k = 10;
    return query;
  }());
  const Result<std::string> similarity_plan = client.Explain(nearest);
  ASSERT_TRUE(similarity_plan.ok()) << similarity_plan.status().ToString();
  EXPECT_NE(similarity_plan->find("nearest"), std::string::npos);
  EXPECT_TRUE(client.Ping().ok());
}

TEST_F(LoopbackTest, LargeResultStreamsAcrossChunks) {
  // 1300 images: a match-all query needs 3 chunk frames (512 ids each).
  StartServer(1300);
  Client client = Connect();
  RangeQuery all;
  all.bin = 0;
  all.min_fraction = 0.0;
  all.max_fraction = 1.0;
  const QueryRequest request = QueryRequest::Range(all, QueryMethod::kRbm);
  const Result<QueryResult> remote = client.Execute(request);
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  const Result<QueryResult> embedded = service_->Execute(request);
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(remote->ids, embedded->ids);
  EXPECT_GT(remote->ids.size(), 1024u);
}

TEST_F(LoopbackTest, PingAndInfoDescribeTheServer) {
  StartServer(60);
  Client client = Connect();
  EXPECT_TRUE(client.Ping().ok());
  const Result<net::ServerInfo> info = client.GetInfo();
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->quantizer_divisions, db_->quantizer().divisions());
  EXPECT_EQ(info->color_space,
            static_cast<uint8_t>(db_->quantizer().space()));
  EXPECT_EQ(info->image_count, db_->collection().BinaryCount() +
                                   db_->collection().EditedCount());
  EXPECT_EQ(info->protocol_version, net::kProtocolVersion);
}

TEST_F(LoopbackTest, QueryErrorKeepsTheConnectionUsable) {
  StartServer(60);
  Client client = Connect();
  QueryRequest bad;
  bad.method = QueryMethod::kBwm;
  RangeQuery range;
  range.bin = 1 << 20;  // Out of range for a 64-bin quantizer.
  bad.payload = range;
  const Result<QueryResult> error = client.Execute(bad);
  EXPECT_FALSE(error.ok());
  EXPECT_TRUE(client.connected());
  // Same connection, valid query: still answered.
  RangeQuery all;
  all.min_fraction = 0.0;
  all.max_fraction = 1.0;
  EXPECT_TRUE(
      client.Execute(QueryRequest::Range(all, QueryMethod::kRbm)).ok());
}

TEST_F(LoopbackTest, MalformedAndOversizedFramesAreRejected) {
  ServerOptions options;
  options.max_frame_bytes = 4096;
  StartServer(60, options);

  {
    // Garbage with valid transport framing: typed error back, counted,
    // connection dropped (bad magic means the peer isn't speaking mmdb).
    net::Socket raw =
        net::Socket::ConnectTcp("127.0.0.1", server_->port()).value();
    ASSERT_TRUE(net::WriteFrame(raw, "this is not an mmdb frame").ok());
    std::string response;
    ASSERT_TRUE(
        net::ReadFrame(raw, 1 << 20, &response, nullptr).ok());
    const Result<Frame> frame = ParseFrame(response);
    ASSERT_TRUE(frame.ok());
    ASSERT_EQ(frame->type(), FrameType::kError);
    Status carried;
    ASSERT_TRUE(net::DecodeError(*frame, &carried).ok());
    EXPECT_EQ(carried.code(), StatusCode::kInvalidArgument);
  }
  {
    // A length prefix past max_frame_bytes: rejected without reading.
    net::Socket raw =
        net::Socket::ConnectTcp("127.0.0.1", server_->port()).value();
    const std::string huge(8192, 'x');
    ASSERT_TRUE(net::WriteFrame(raw, huge).ok());
    std::string response;
    Status read = net::ReadFrame(raw, 1 << 20, &response, nullptr);
    if (read.ok()) {
      const Result<Frame> frame = ParseFrame(response);
      ASSERT_TRUE(frame.ok());
      EXPECT_EQ(frame->type(), FrameType::kError);
    }  // A reset instead of a readable error is also a valid rejection.
  }
  // Both connections were rejected as decode errors eventually.
  for (int i = 0; i < 100; ++i) {
    if (server_->GetStats().decode_errors >= 2) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(server_->GetStats().decode_errors, 2);
}

TEST_F(LoopbackTest, ConcurrentClientsGetConsistentAnswers) {
  ServerOptions options;
  options.connection_threads = 8;
  StartServer(150, options);
  RangeQuery all;
  all.min_fraction = 0.0;
  all.max_fraction = 1.0;
  const QueryRequest request = QueryRequest::Range(all, QueryMethod::kBwm);
  const std::vector<ObjectId> expected = service_->Execute(request)->ids;

  constexpr int kClients = 8;
  constexpr int kQueriesEach = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    threads.emplace_back([&] {
      Client client =
          Client::Connect("127.0.0.1", server_->port()).value();
      for (int q = 0; q < kQueriesEach; ++q) {
        const Result<QueryResult> result = client.Execute(request);
        if (!result.ok() || result->ids != expected) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  const QueryServer::Stats stats = server_->GetStats();
  EXPECT_GE(stats.requests, kClients * kQueriesEach);
  EXPECT_GE(stats.connections_accepted, kClients);
}

TEST_F(LoopbackTest, ServerStopDrainsConnections) {
  StartServer(60);
  Client a = Connect();
  Client b = Connect();
  ASSERT_TRUE(a.Ping().ok());
  ASSERT_TRUE(b.Ping().ok());
  server_->Stop();
  EXPECT_EQ(server_->GetStats().active_connections, 0);
  // The clients observe the shutdown as a transport error, not a hang.
  EXPECT_FALSE(a.Ping().ok());
}

// --- Wire deadlines and disconnect cancellation over a stalled store ----

/// Several binary images plus `edited` scripts, flushed to disk via the
/// default env, so a fault-injecting reopen starts from a cold, fully
/// persisted store. Reopening warms the catalog and script pages (they
/// are loaded eagerly), so the rasters must be what forces query-time
/// I/O: at 128x128 each blob spans ~12 pages, guaranteeing an
/// instantiate scan performs many cold page reads and the per-page
/// deadline/cancel check gets boundaries to trip at.
void BuildMultiPageStore(const std::string& path, int binaries,
                         int edited) {
  RemoveStoreFiles(path);
  DatabaseOptions options;
  options.path = path;
  auto db = MultimediaDatabase::Open(options).value();
  Rng rng(4242);
  ObjectId first_base = kInvalidObjectId;
  for (int i = 0; i < binaries; ++i) {
    const ObjectId id =
        db->InsertBinaryImage(testing::RandomBlockImage(128, 128, 4, rng))
            .value();
    if (first_base == kInvalidObjectId) first_base = id;
  }
  for (int i = 0; i < edited; ++i) {
    EditScript script;
    script.base_id = first_base;
    script.ops.emplace_back(ModifyOp{colors::kRed, colors::kGold});
    ASSERT_TRUE(db->InsertEditedImage(script).ok());
  }
  ASSERT_TRUE(db->Flush().ok());
}

TEST(NetworkDeadlineTest, ServerEnforcesWireDeadlines) {
  const std::string path = TempPath("mmdb_net_deadline.db");
  BuildMultiPageStore(path, 8, 4);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();
  // Armed before the service and server exist: thread creation orders
  // these writes before any worker-thread read (keeps TSan clean). The
  // first query-time read stalls past the deadline; the next page
  // read's scoped check trips.
  env.StallNth(IoOp::kRead, 1, 0.3);
  QueryService service(db.get());
  QueryServer server(db.get(), &service);
  ASSERT_TRUE(server.Start().ok());
  {
    Client client =
        Client::Connect("127.0.0.1", server.port()).value();
    RangeQuery all;
    all.min_fraction = 0.0;
    all.max_fraction = 1.0;
    QueryRequest request =
        QueryRequest::Range(all, QueryMethod::kInstantiate);
    request.deadline = Deadline::After(0.02);
    Stopwatch watch;
    const Result<QueryResult> result = client.Execute(request);
    EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
        << result.status().ToString();
    // Enforced by the server: late by one stalled read, never by a
    // client-side timeout (which would have closed the connection).
    EXPECT_LT(watch.ElapsedSeconds(), 1.8);
    EXPECT_TRUE(client.connected());
  }
  server.Stop();
  EXPECT_EQ(service.Snapshot().deadline_exceeded, 1);
  env.ClearFaults();
  RemoveStoreFiles(path);
}

TEST(NetworkCancelTest, ClientDisconnectCancelsTheInFlightQuery) {
  const std::string path = TempPath("mmdb_net_disconnect.db");
  BuildMultiPageStore(path, 8, 4);

  FaultInjectingEnv env(Env::Default());
  DatabaseOptions options;
  options.path = path;
  options.env = &env;
  auto db = MultimediaDatabase::Open(options).value();
  // The first query-time page read stalls half a second: the dropped
  // socket gets noticed while the query sits inside the stall, and the
  // next page read's scoped check observes the watcher's cancel. Armed
  // before the service/server threads exist (TSan-clean ordering).
  env.StallNth(IoOp::kRead, 1, 0.5);
  QueryService service(db.get());

  ServerOptions server_options;
  server_options.watch_interval_seconds = 0.002;
  QueryServer server(db.get(), &service, server_options);
  ASSERT_TRUE(server.Start().ok());
  {
    net::Socket raw =
        net::Socket::ConnectTcp("127.0.0.1", server.port()).value();
    RangeQuery all;
    all.min_fraction = 0.0;
    all.max_fraction = 1.0;
    const QueryRequest request =
        QueryRequest::Range(all, QueryMethod::kInstantiate);
    ASSERT_TRUE(
        net::WriteFrame(raw, net::EncodeExecuteRequest(request)).ok());
    // Hang up while the query is stalled inside its first read.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    raw.Close();
  }
  // The watcher trips the request's CancelToken; the cooperative check
  // stops the scan long before the remaining stalls would have.
  Stopwatch watch;
  bool cancelled = false;
  while (watch.ElapsedSeconds() < 5.0) {
    if (service.Snapshot().cancelled_queries >= 1) {
      cancelled = true;
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(cancelled) << "disconnect did not cancel the query";
  server.Stop();
  // No leaked connections either way.
  EXPECT_EQ(server.GetStats().active_connections, 0);
  EXPECT_EQ(service.Snapshot().cancelled_queries, 1);
  env.ClearFaults();
  RemoveStoreFiles(path);
}

}  // namespace
}  // namespace mmdb
