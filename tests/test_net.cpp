// ge::net service layer: frame codec hardening (the same every-prefix
// truncation and every-bit corruption sweeps tests/test_io.cpp runs
// against the .gec container), message codec round trips with the
// forward-compat trailing-field rule, LeaseTable fault-tolerance
// semantics under an injected clock, lease partitioning of the campaign
// trial space, and a full loopback serve/submit/worker exercise asserting
// the served digest is bitwise identical to an offline run.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/campaign.hpp"
#include "io/campaign_state.hpp"
#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/frame.hpp"
#include "net/lease.hpp"
#include "net/server.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "obs/metrics_server.hpp"
#include "obs/run_log.hpp"
#include "obs/telemetry.hpp"
#include "parallel/thread_pool.hpp"

namespace ge::net {
namespace {

struct ThreadGuard {
  int saved = parallel::num_threads();
  ~ThreadGuard() { parallel::set_num_threads(saved); }
};

// --- framing ---------------------------------------------------------------

Frame sample_frame() {
  Frame f;
  f.type = FrameType::kLogRow;
  f.payload = {'h', 'e', 'l', 'l', 'o', ' ', 0x00, 0xff, 0x7f};
  return f;
}

TEST(FrameCodec, RoundTripsTypeAndPayload) {
  const Frame f = sample_frame();
  const std::vector<uint8_t> wire = encode_frame(f);
  ASSERT_EQ(wire.size(), kFrameHeaderSize + f.payload.size());
  const Frame back = decode_frame(wire, "test");
  EXPECT_EQ(back.type, f.type);
  EXPECT_EQ(back.payload, f.payload);
}

TEST(FrameCodec, EmptyPayloadRoundTrips) {
  const Frame back =
      decode_frame(encode_frame({FrameType::kLeaseRequest, {}}), "test");
  EXPECT_EQ(back.type, FrameType::kLeaseRequest);
  EXPECT_TRUE(back.payload.empty());
}

TEST(FrameCodec, EveryPrefixTruncationIsRejected) {
  const std::vector<uint8_t> wire = encode_frame(sample_frame());
  for (size_t len = 0; len < wire.size(); ++len) {
    std::vector<uint8_t> cut(wire.begin(), wire.begin() + len);
    EXPECT_THROW(decode_frame(cut, "trunc"), NetError) << "prefix " << len;
  }
}

TEST(FrameCodec, EveryBitCorruptionIsRejected) {
  // Flip every bit of every byte except the frame-type byte (offset 8):
  // the type is a routing tag, not payload — a flip there may land on
  // another *valid* type, which the CRC deliberately does not cover
  // (headers are validated structurally, like the .gec section table).
  const std::vector<uint8_t> wire = encode_frame(sample_frame());
  for (size_t byte = 0; byte < wire.size(); ++byte) {
    if (byte == 8) continue;
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = wire;
      bad[byte] = uint8_t(bad[byte] ^ (1u << bit));
      EXPECT_THROW(decode_frame(bad, "corrupt"), NetError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(FrameCodec, OutOfRangeTypeByteIsRejected) {
  std::vector<uint8_t> wire = encode_frame(sample_frame());
  for (const uint8_t t : {uint8_t{0}, uint8_t{13}, uint8_t{200}}) {
    wire[8] = t;
    EXPECT_THROW(decode_frame(wire, "type"), NetError) << int(t);
  }
}

TEST(FrameCodec, OversizedLengthIsRejectedBeforeAllocation) {
  // A corrupt/hostile length field just over the cap must be rejected by
  // the header check; the payload is never allocated or read.
  std::vector<uint8_t> wire = encode_frame({FrameType::kHello, {}});
  const uint64_t huge = kMaxPayload + 1;
  for (int i = 0; i < 8; ++i) wire[9 + i] = uint8_t(huge >> (8 * i));
  try {
    decode_frame(wire, "huge");
    FAIL() << "oversized length accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("exceeds cap"), std::string::npos);
  }
}

TEST(FrameCodec, NewerProtocolVersionIsRejected) {
  std::vector<uint8_t> wire = encode_frame(sample_frame());
  const uint32_t newer = kProtocolVersion + 1;
  for (int i = 0; i < 4; ++i) wire[4 + i] = uint8_t(newer >> (8 * i));
  try {
    decode_frame(wire, "ver");
    FAIL() << "newer version accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported protocol version"),
              std::string::npos);
  }
  for (int i = 0; i < 4; ++i) wire[4 + i] = 0;  // version 0 (pre-history)
  EXPECT_THROW(decode_frame(wire, "ver0"), NetError);
}

TEST(FrameSocket, RecvDistinguishesCleanEofFromMidFrameCut) {
  ListenResult lr = listen_loopback(0);
  ASSERT_TRUE(lr.sock.valid()) << lr.error;

  const std::vector<uint8_t> wire = encode_frame(sample_frame());
  // Clean EOF: peer closes at a frame boundary -> nullopt, no throw.
  {
    std::string error;
    Socket client = connect_to("127.0.0.1", lr.port, &error);
    ASSERT_TRUE(client.valid()) << error;
    Socket server = accept_connection(lr.sock, 1000);
    ASSERT_TRUE(server.valid());
    ASSERT_TRUE(client.send_all(wire.data(), wire.size()));
    client.close();
    std::optional<Frame> f = recv_frame(server, "eof");
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(f->payload, sample_frame().payload);
    EXPECT_FALSE(recv_frame(server, "eof").has_value());
  }
  // Mid-frame cut: peer dies partway through -> diagnosed NetError.
  {
    std::string error;
    Socket client = connect_to("127.0.0.1", lr.port, &error);
    ASSERT_TRUE(client.valid()) << error;
    Socket server = accept_connection(lr.sock, 1000);
    ASSERT_TRUE(server.valid());
    ASSERT_TRUE(client.send_all(wire.data(), wire.size() - 3));
    client.close();
    EXPECT_THROW(recv_frame(server, "cut"), NetError);
  }
}

TEST(FrameSocket, DrainAcceptReturnsImmediatelyOnEmptyBacklog) {
  // timeout 0 is the backlog-drain contract: an empty backlog must yield
  // an invalid Socket at once, never a blocking accept(). A regression
  // here deadlocks the MetricsServer serve loop (and anything else that
  // drains after a wake), so pin it with a wall-clock bound.
  ListenResult lr = listen_loopback(0);
  ASSERT_TRUE(lr.sock.valid()) << lr.error;
  const auto t0 = std::chrono::steady_clock::now();
  Socket none = accept_connection(lr.sock, /*timeout_ms=*/0);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_FALSE(none.valid());
  EXPECT_LT(elapsed, std::chrono::seconds(5));

  // With a queued connection the same call must still hand it over.
  std::string error;
  Socket client = connect_to("127.0.0.1", lr.port, &error);
  ASSERT_TRUE(client.valid()) << error;
  ASSERT_TRUE(client.wait_readable(0) >= 0);
  Socket pending = accept_connection(lr.sock, /*timeout_ms=*/1000);
  EXPECT_TRUE(pending.valid());
  EXPECT_FALSE(accept_connection(lr.sock, /*timeout_ms=*/0).valid());
}

// --- message codec ---------------------------------------------------------

CampaignSpecMsg sample_spec() {
  CampaignSpecMsg s;
  s.model_name = "simple_cnn";
  s.epochs = 2;
  s.samples = 8;
  s.format_spec = "fp_e4m3";
  s.site = 0;
  s.error_model = 0;
  s.injections_per_layer = 3;
  s.seed = 99;
  s.sites_per_trial = 2;
  s.ber = 0.25;
  s.burst_len = 4;
  s.prefix_cache = 1;
  return s;
}

TEST(MessageCodec, CampaignSpecRoundTrips) {
  const CampaignSpecMsg s = sample_spec();
  const CampaignSpecMsg b =
      decode_campaign_spec(encode_campaign_spec(s), "test");
  EXPECT_EQ(b.model_name, s.model_name);
  EXPECT_EQ(b.epochs, s.epochs);
  EXPECT_EQ(b.samples, s.samples);
  EXPECT_EQ(b.format_spec, s.format_spec);
  EXPECT_EQ(b.site, s.site);
  EXPECT_EQ(b.error_model, s.error_model);
  EXPECT_EQ(b.injections_per_layer, s.injections_per_layer);
  EXPECT_EQ(b.seed, s.seed);
  EXPECT_EQ(b.sites_per_trial, s.sites_per_trial);
  EXPECT_EQ(b.ber, s.ber);
  EXPECT_EQ(b.burst_len, s.burst_len);
  EXPECT_EQ(b.prefix_cache, s.prefix_cache);
}

TEST(MessageCodec, TrailingFieldsAreIgnoredForwardCompat) {
  // The .gec forward-compat rule on the wire: a newer peer may append
  // fields; this reader takes what it knows and ignores the rest.
  std::vector<uint8_t> payload = encode_campaign_spec(sample_spec());
  payload.insert(payload.end(), {0xde, 0xad, 0xbe, 0xef, 0x01});
  const CampaignSpecMsg b = decode_campaign_spec(payload, "compat");
  EXPECT_EQ(b.format_spec, "fp_e4m3");
  EXPECT_EQ(b.seed, 99u);

  // Same rule holds one nesting level down (the spec blob in a grant).
  LeaseGrantMsg g;
  g.campaign_id = 7;
  g.lease_id = 3;
  g.lo = 10;
  g.hi = 20;
  g.heartbeat_ms = 1500;
  g.spec = sample_spec();
  std::vector<uint8_t> gp = encode_lease_grant(g);
  gp.push_back(0x55);
  const LeaseGrantMsg gb = decode_lease_grant(gp, "compat");
  EXPECT_EQ(gb.campaign_id, 7u);
  EXPECT_EQ(gb.lo, 10u);
  EXPECT_EQ(gb.hi, 20u);
  EXPECT_EQ(gb.heartbeat_ms, 1500u);
  EXPECT_EQ(gb.spec.format_spec, "fp_e4m3");
}

TEST(MessageCodec, TraceContextRidesAsTaggedTrailingField) {
  CampaignSpecMsg s = sample_spec();
  s.trace_id = 0x1122334455667788ull;
  s.parent_span_id = 0x99aabbccddeeff01ull;
  const std::vector<uint8_t> traced = encode_campaign_spec(s);
  const CampaignSpecMsg b = decode_campaign_spec(traced, "trace");
  EXPECT_EQ(b.trace_id, s.trace_id);
  EXPECT_EQ(b.parent_span_id, s.parent_span_id);
  EXPECT_EQ(b.format_spec, s.format_spec);

  // Untraced specs encode byte-identically to the pre-trace wire format:
  // the tag (+16 id bytes) is appended only when a trace is active, so a
  // digest pinned against an older peer cannot move.
  const std::vector<uint8_t> plain = encode_campaign_spec(sample_spec());
  ASSERT_EQ(plain.size() + 20, traced.size());
  EXPECT_TRUE(std::equal(plain.begin(), plain.end(), traced.begin()));
  const CampaignSpecMsg pb = decode_campaign_spec(plain, "plain");
  EXPECT_EQ(pb.trace_id, 0u);
  EXPECT_EQ(pb.parent_span_id, 0u);

  // A 20-byte tail that is not the tag stays forward-compat junk — it
  // must never be misread as a trace context.
  std::vector<uint8_t> junk = plain;
  junk.insert(junk.end(), 20, 0x5a);
  const CampaignSpecMsg jb = decode_campaign_spec(junk, "junk");
  EXPECT_EQ(jb.trace_id, 0u);
  EXPECT_EQ(jb.parent_span_id, 0u);

  // The context survives one nesting level down (the spec blob in a lease
  // grant), which is how workers join the submit client's trace.
  LeaseGrantMsg g;
  g.campaign_id = 7;
  g.lease_id = 3;
  g.lo = 10;
  g.hi = 20;
  g.heartbeat_ms = 1500;
  g.spec = s;
  const LeaseGrantMsg gb = decode_lease_grant(encode_lease_grant(g), "nest");
  EXPECT_EQ(gb.spec.trace_id, s.trace_id);
  EXPECT_EQ(gb.spec.parent_span_id, s.parent_span_id);
}

TEST(MessageCodec, TracedSpecEveryPrefixTruncationIsSafe) {
  CampaignSpecMsg s = sample_spec();
  s.trace_id = 0xfeedfacecafebeefull;
  s.parent_span_id = 0x0123456789abcdefull;
  const std::vector<uint8_t> payload = encode_campaign_spec(s);
  for (size_t len = 0; len < payload.size(); ++len) {
    std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    // Every prefix either throws (a fixed field is cut) or decodes with
    // the trace context dropped to zero (an incomplete tag is an
    // ignorable tail, never a partial read).
    try {
      const CampaignSpecMsg b = decode_campaign_spec(cut, "trunc");
      EXPECT_EQ(b.trace_id, 0u) << "prefix " << len;
      EXPECT_EQ(b.parent_span_id, 0u) << "prefix " << len;
    } catch (const NetError&) {
    }
  }
  const CampaignSpecMsg full = decode_campaign_spec(payload, "full");
  EXPECT_EQ(full.trace_id, s.trace_id);
  EXPECT_EQ(full.parent_span_id, s.parent_span_id);
}

TEST(MessageCodec, TracedSpecFrameEveryBitCorruptionIsRejected) {
  // The CRC sweep from the frame tests, re-run over a payload that ends in
  // the trace tag: no payload bit flip (tag, ids, or anything before them)
  // may slip through the frame check.
  CampaignSpecMsg s = sample_spec();
  s.trace_id = 0x1111111111111111ull;
  s.parent_span_id = 0x2222222222222222ull;
  const std::vector<uint8_t> wire =
      encode_frame({FrameType::kSubmit, encode_campaign_spec(s)});
  for (size_t byte = kFrameHeaderSize; byte < wire.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      std::vector<uint8_t> bad = wire;
      bad[byte] = uint8_t(bad[byte] ^ (1u << bit));
      EXPECT_THROW(decode_frame(bad, "corrupt"), NetError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

TEST(MessageCodec, TruncatedPayloadIsDiagnosed) {
  const std::vector<uint8_t> payload = encode_campaign_spec(sample_spec());
  for (size_t len = 0; len < payload.size(); len += 3) {
    std::vector<uint8_t> cut(payload.begin(), payload.begin() + len);
    EXPECT_THROW(decode_campaign_spec(cut, "trunc"), NetError) << len;
  }
}

TEST(MessageCodec, ControlMessagesRoundTrip) {
  const HelloMsg h = decode_hello(
      encode_hello({HelloMsg::kRoleWorker, "w1"}), "t");
  EXPECT_EQ(h.role, HelloMsg::kRoleWorker);
  EXPECT_EQ(h.client, "w1");

  LeaseResultMsg lr;
  lr.campaign_id = 4;
  lr.lease_id = 9;
  lr.progress = {1, 2, 3, 0, 255};
  const LeaseResultMsg lb = decode_lease_result(encode_lease_result(lr), "t");
  EXPECT_EQ(lb.campaign_id, 4u);
  EXPECT_EQ(lb.lease_id, 9u);
  EXPECT_EQ(lb.progress, lr.progress);

  const HeartbeatMsg hb = decode_heartbeat(encode_heartbeat({8, 2}), "t");
  EXPECT_EQ(hb.campaign_id, 8u);
  EXPECT_EQ(hb.lease_id, 2u);

  DoneMsg d;
  d.digest = 0xabcdef0123456789ull;
  d.golden_accuracy = 0.875f;
  d.summary = "layer table\n";
  const DoneMsg db = decode_done(encode_done(d), "t");
  EXPECT_EQ(db.digest, d.digest);
  EXPECT_EQ(db.golden_accuracy, d.golden_accuracy);
  EXPECT_EQ(db.summary, d.summary);

  const ErrorMsg e = decode_error(encode_error({"boom"}), "t");
  EXPECT_EQ(e.message, "boom");

  CheckpointedMsg c;
  c.path = "/tmp/x.gec";
  c.completed_trials = 5;
  c.total_trials = 12;
  const CheckpointedMsg cb = decode_checkpointed(encode_checkpointed(c), "t");
  EXPECT_EQ(cb.path, c.path);
  EXPECT_EQ(cb.completed_trials, 5);
  EXPECT_EQ(cb.total_trials, 12);
}

// --- lease table -----------------------------------------------------------

TEST(LeaseTable, GrantsChunksInOrderWithShortTail) {
  LeaseTable t;
  t.reset(10, 4);  // [0,4) [4,8) [8,10)
  EXPECT_EQ(t.unleased_trials(), 10);
  Lease a, b, c, d;
  ASSERT_TRUE(t.grant(0, 0, &a));
  ASSERT_TRUE(t.grant(0, 0, &b));
  ASSERT_TRUE(t.grant(0, 0, &c));
  EXPECT_FALSE(t.grant(0, 0, &d));  // nothing left
  EXPECT_EQ(a.lo, 0);
  EXPECT_EQ(a.hi, 4);
  EXPECT_EQ(b.lo, 4);
  EXPECT_EQ(b.hi, 8);
  EXPECT_EQ(c.lo, 8);
  EXPECT_EQ(c.hi, 10);
  EXPECT_EQ(t.live_leases(), 3);
  EXPECT_TRUE(t.complete(a.id));
  EXPECT_TRUE(t.complete(b.id));
  EXPECT_FALSE(t.all_done());
  EXPECT_TRUE(t.complete(c.id));
  EXPECT_TRUE(t.all_done());
}

TEST(LeaseTable, ExpiryReclaimsAndStaleResultIsDiscarded) {
  LeaseTable t;
  t.reset(6, 6);
  Lease a;
  ASSERT_TRUE(t.grant(/*now=*/1000, /*timeout=*/500, &a));
  EXPECT_EQ(t.reclaim_expired(1400), 0);  // deadline 1500 not yet passed
  EXPECT_EQ(t.reclaim_expired(1600), 1);
  EXPECT_EQ(t.live_leases(), 0);
  EXPECT_EQ(t.unleased_trials(), 6);
  // The dead lease id must not be able to complete: its range has been
  // requeued and will be re-run; accepting the late result would double
  // count trials (merge would reject the overlapping done sets).
  EXPECT_FALSE(t.complete(a.id));
  EXPECT_FALSE(t.heartbeat(a.id, 1700, 500));
  Lease b;
  ASSERT_TRUE(t.grant(2000, 500, &b));
  EXPECT_NE(b.id, a.id);
  EXPECT_EQ(b.lo, a.lo);
  EXPECT_EQ(b.hi, a.hi);
  EXPECT_TRUE(t.complete(b.id));
  EXPECT_TRUE(t.all_done());
}

TEST(LeaseTable, HeartbeatExtendsTheDeadline) {
  LeaseTable t;
  t.reset(4, 4);
  Lease a;
  ASSERT_TRUE(t.grant(0, 1000, &a));
  EXPECT_TRUE(t.heartbeat(a.id, 900, 1000));  // new deadline 1900
  EXPECT_EQ(t.reclaim_expired(1500), 0);
  EXPECT_EQ(t.reclaim_expired(2000), 1);
}

TEST(LeaseTable, NonExpiringLeaseSurvivesAnyClock) {
  LeaseTable t;
  t.reset(4, 4);
  Lease a;
  ASSERT_TRUE(t.grant(0, /*timeout_ns=*/0, &a));  // the executor's own lease
  EXPECT_EQ(t.reclaim_expired(INT64_MAX), 0);
  EXPECT_TRUE(t.complete(a.id));
}

TEST(LeaseTable, AbandonedRangeIsRequeuedAtTheFront) {
  LeaseTable t;
  t.reset(9, 3);  // [0,3) [3,6) [6,9)
  Lease a, b;
  ASSERT_TRUE(t.grant(0, 0, &a));
  ASSERT_TRUE(t.grant(0, 0, &b));
  EXPECT_TRUE(t.abandon(a.id));
  EXPECT_FALSE(t.abandon(a.id));  // already gone
  // Recovery work starts immediately: the abandoned range is granted
  // before the never-touched tail chunk.
  Lease c;
  ASSERT_TRUE(t.grant(0, 0, &c));
  EXPECT_EQ(c.lo, a.lo);
  EXPECT_EQ(c.hi, a.hi);
}

// --- lease partitioning of the campaign trial space ------------------------

constexpr const char* kCacheDir = "/tmp/ge_test_net_cache";

CampaignSpecMsg e2e_spec() {
  CampaignSpecMsg s;
  s.model_name = "simple_cnn";
  s.epochs = 2;
  s.samples = 8;
  s.format_spec = "fp_e4m3";
  s.injections_per_layer = 3;
  s.seed = 99;
  return s;
}

TEST(PrepareCampaign, SamplesOutsideTheTestSplitAreRefused) {
  // The server re-validates a spec with the CLI's rules: the synthetic
  // test split holds 512 images, so 0 and 513 are refused before any
  // model is trained or loaded.
  for (const int64_t samples : {int64_t{0}, int64_t{-1}, int64_t{513}}) {
    CampaignSpecMsg spec = e2e_spec();
    spec.samples = samples;
    try {
      (void)prepare_campaign(spec, kCacheDir);
      ADD_FAILURE() << "samples " << samples << " was accepted";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find("samples"), std::string::npos)
          << e.what();
    }
  }
}

TEST(PrepareCampaign, NanBerIsRefused) {
  CampaignSpecMsg spec = e2e_spec();
  spec.error_model = static_cast<uint8_t>(core::ErrorModel::kChannel);
  spec.ber = std::nan("");
  try {
    (void)prepare_campaign(spec, kCacheDir);
    ADD_FAILURE() << "ber nan was accepted";
  } catch (const NetError& e) {
    EXPECT_NE(std::string(e.what()).find("ber"), std::string::npos)
        << e.what();
  }
}

TEST(PrepareCampaign, MetadataSiteOnValueOnlyFormatIsRefused) {
  // A metadata campaign under fp, fxp or posit would select no layer and
  // run zero trials; the server refuses it before any model is loaded.
  for (const char* format : {"fp_e4m3", "fxp_1_3_12", "posit_8_1"}) {
    CampaignSpecMsg spec = e2e_spec();
    spec.format_spec = format;
    spec.site = static_cast<uint8_t>(core::InjectionSite::kMetadata);
    try {
      (void)prepare_campaign(spec, kCacheDir);
      ADD_FAILURE() << format << " metadata campaign was accepted";
    } catch (const NetError& e) {
      EXPECT_NE(std::string(e.what()).find(format), std::string::npos)
          << e.what();
    }
  }
}

uint64_t offline_digest(const CampaignSpecMsg& spec) {
  PreparedCampaign prep = prepare_campaign(spec, kCacheDir);
  core::CampaignRunOptions opts;
  opts.model_name = spec.model_name;
  opts.eval_samples = spec.samples;
  const core::CampaignProgress prog = prep.session->run(opts);
  return core::campaign_digest(core::finalize_campaign(prog));
}

TEST(LeasePartition, ArbitraryPartitionMergesBitwiseIdentical) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  const CampaignSpecMsg spec = e2e_spec();
  PreparedCampaign prep = prepare_campaign(spec, kCacheDir);
  ASSERT_GT(prep.total_trials, 4);

  // Uneven three-way cut of the global trial index space.
  const int64_t t = prep.total_trials;
  const std::vector<std::pair<int64_t, int64_t>> cuts = {
      {0, 1}, {1, t / 2}, {t / 2, t}};
  std::vector<core::CampaignProgress> parts;
  for (const auto& [lo, hi] : cuts) {
    core::CampaignRunOptions opts;
    opts.model_name = spec.model_name;
    opts.eval_samples = spec.samples;
    opts.lease_lo = lo;
    opts.lease_hi = hi;
    parts.push_back(prep.session->run(opts));
    EXPECT_EQ(parts.back().completed_trials(), hi - lo);
  }
  // Merged as they are, as the server merges them: disjoint leases give
  // disjoint done sets.
  const core::CampaignProgress merged = core::merge_campaign_progress(parts);
  EXPECT_TRUE(merged.complete());
  EXPECT_EQ(core::campaign_digest(core::finalize_campaign(merged)),
            offline_digest(spec));
}

TEST(LeasePartition, BoundsAreValidated) {
  const CampaignSpecMsg spec = e2e_spec();
  PreparedCampaign prep = prepare_campaign(spec, kCacheDir);
  core::CampaignRunOptions opts;
  opts.lease_lo = 0;
  opts.lease_hi = prep.total_trials + 1;  // beyond the trial space
  EXPECT_THROW(prep.session->run(opts), std::invalid_argument);
  opts.lease_lo = 5;
  opts.lease_hi = 3;  // inverted
  EXPECT_THROW(prep.session->run(opts), std::invalid_argument);
}

// --- loopback end to end ---------------------------------------------------

uint64_t parse_digest(const std::string& out) {
  const std::string needle = "campaign digest: 0x";
  const size_t pos = out.find(needle);
  EXPECT_NE(pos, std::string::npos) << out;
  if (pos == std::string::npos) return 0;
  return std::stoull(out.substr(pos + needle.size()), nullptr, 16);
}

/// All "trial" rows of a JSONL stream, sorted (lease execution order is
/// nondeterministic across runs; the row *set* is not).
std::vector<std::string> trial_rows(const std::string& jsonl) {
  std::vector<std::string> rows;
  std::istringstream in(jsonl);
  std::string line;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"trial\"") != std::string::npos) {
      rows.push_back(line);
    }
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct ServedRun {
  int code = 0;
  std::string out;
  std::string report;
};

/// Spin up an in-process server, submit `spec`, and return the client's
/// stdout + spliced report. Extra client threads (workers) run alongside.
ServedRun serve_and_submit(const CampaignSpecMsg& spec, ServeOptions sopts,
                           std::ostream* server_log_stream = nullptr,
                           std::function<void(int)> extra = {}) {
  sopts.cache_dir = kCacheDir;
  sopts.max_campaigns = 1;
  std::unique_ptr<obs::RunLog> slog;
  if (server_log_stream != nullptr) {
    slog = std::make_unique<obs::RunLog>(*server_log_stream);
  }
  Server server(sopts, slog.get());
  EXPECT_TRUE(server.ok()) << server.last_error();
  std::thread serve([&] { server.run(); });

  std::thread extra_thread;
  if (extra) extra_thread = std::thread([&] { extra(server.port()); });

  ServedRun r;
  std::ostringstream out, err, report_stream;
  obs::RunLog report(report_stream);
  SubmitOptions sub;
  sub.port = server.port();
  sub.spec = spec;
  r.code = run_submit(sub, &report, out, err);
  r.out = out.str() + err.str();
  r.report = report_stream.str();

  serve.join();
  if (extra_thread.joinable()) extra_thread.join();
  return r;
}

TEST(ServeLoopback, ServedDigestMatchesOfflineAtOneAndFourThreads) {
  ThreadGuard guard;
  const CampaignSpecMsg spec = e2e_spec();

  parallel::set_num_threads(1);
  const uint64_t offline1 = offline_digest(spec);
  std::ostringstream offline_report_stream;
  {
    obs::RunLog offline_log(offline_report_stream);
    PreparedCampaign prep = prepare_campaign(spec, kCacheDir);
    core::CampaignRunOptions opts;
    opts.model_name = spec.model_name;
    opts.eval_samples = spec.samples;
    opts.run_log = &offline_log;
    prep.session->run(opts);
  }

  const ServedRun r1 = serve_and_submit(spec, ServeOptions{});
  ASSERT_EQ(r1.code, 0) << r1.out;
  EXPECT_EQ(parse_digest(r1.out), offline1);

  parallel::set_num_threads(4);
  const ServedRun r4 = serve_and_submit(spec, ServeOptions{});
  ASSERT_EQ(r4.code, 0) << r4.out;
  EXPECT_EQ(parse_digest(r4.out), offline1);

  // The streamed rows are the exact bytes an offline --report run writes
  // (sorted: chunked execution reorders rows, never alters them).
  const auto offline_rows = trial_rows(offline_report_stream.str());
  ASSERT_FALSE(offline_rows.empty());
  EXPECT_EQ(trial_rows(r1.report), offline_rows);
  EXPECT_EQ(trial_rows(r4.report), offline_rows);
}

TEST(ServeLoopback, WorkerExecutesLeasesAndDigestStillMatches) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  CampaignSpecMsg spec = e2e_spec();
  spec.prefix_cache = 0;  // slower trials widen the lease-stealing window
  const uint64_t offline = offline_digest(spec);

  ServeOptions sopts;
  sopts.lease_chunk = 1;
  std::ostringstream worker_out, worker_err;
  const ServedRun r = serve_and_submit(
      spec, sopts, nullptr, [&](int port) {
        WorkerOptions w;
        w.port = port;
        w.cache_dir = kCacheDir;
        w.poll_ms = 10;
        w.idle_timeout_ms = 30000;  // backstop; kShutdown arrives first
        run_worker(w, worker_out, worker_err);
      });
  ASSERT_EQ(r.code, 0) << r.out;
  EXPECT_EQ(parse_digest(r.out), offline);
}

TEST(ServeLoopback, KilledWorkerLeaseIsReclaimedAndDigestStillMatches) {
  ThreadGuard guard;
  parallel::set_num_threads(2);
  CampaignSpecMsg spec = e2e_spec();
  spec.prefix_cache = 0;
  const uint64_t offline = offline_digest(spec);

  ServeOptions sopts;
  sopts.lease_chunk = 1;
  std::ostringstream slog, worker_out, worker_err;
  const ServedRun r = serve_and_submit(
      spec, sopts, &slog, [&](int port) {
        WorkerOptions w;
        w.port = port;
        w.cache_dir = kCacheDir;
        w.poll_ms = 10;
        w.drop_leases = 1;  // accept one grant, run nothing, drop the link
        run_worker(w, worker_out, worker_err);
      });
  ASSERT_EQ(r.code, 0) << r.out;
  EXPECT_EQ(parse_digest(r.out), offline);
  // The drill must actually have exercised the reclaim path: the worker
  // died holding a granted range, and the server logged the abandonment.
  EXPECT_NE(worker_out.str().find("dying with 1 leases held"),
            std::string::npos)
      << worker_out.str();
  EXPECT_NE(slog.str().find("lease_abandoned"), std::string::npos)
      << slog.str();
}

TEST(ServeLoopback, ColdCacheWorkerKeepsItsLeaseThroughPrepare) {
  // A worker with its own empty cache must train before it can run its
  // first lease, which takes far longer than the lease timeout. Heartbeats
  // from the grant on keep that lease alive: nothing is reclaimed, the
  // worker's result is the one merged, and served == offline.
  ThreadGuard guard;
  parallel::set_num_threads(2);
  CampaignSpecMsg spec = e2e_spec();
  spec.prefix_cache = 0;
  spec.injections_per_layer = 24;  // a long lease queue: the worker joins
  const uint64_t offline = offline_digest(spec);
  const std::string cold_cache = "/tmp/ge_test_net_cold_cache";
  std::filesystem::remove_all(cold_cache);

  obs::TelemetryScope metrics(/*tracing=*/false, /*metrics=*/true);
  obs::reset_counters();
  ServeOptions sopts;
  sopts.lease_chunk = 1;
  sopts.lease_timeout_ms = 500;  // training takes seconds
  std::ostringstream worker_out, worker_err;
  const ServedRun r = serve_and_submit(spec, sopts, nullptr, [&](int port) {
    WorkerOptions w;
    w.port = port;
    w.cache_dir = cold_cache;
    w.poll_ms = 1;
    w.idle_timeout_ms = 60000;  // backstop; kShutdown arrives first
    try {
      run_worker(w, worker_out, worker_err);
    } catch (const std::exception& e) {
      worker_err << e.what();
    }
  });
  ASSERT_EQ(r.code, 0) << r.out;
  EXPECT_EQ(parse_digest(r.out), offline);
  EXPECT_NE(worker_out.str().find("completed lease"), std::string::npos)
      << worker_out.str() << worker_err.str();
  EXPECT_EQ(obs::counter_value(obs::Counter::kNetLeaseReclaims), 0u);
  std::filesystem::remove_all(cold_cache);
}

std::string http_get(int port, const std::string& path) {
  std::string error;
  Socket s = connect_to("127.0.0.1", port, &error);
  if (!s.valid()) return {};
  const std::string req = "GET " + path + " HTTP/1.1\r\nHost: x\r\n\r\n";
  if (!s.send_all(req.data(), req.size())) return {};
  std::string resp;
  char buf[4096];
  ssize_t n;
  while ((n = s.recv_some(buf, sizeof(buf))) > 0) {
    resp.append(buf, static_cast<size_t>(n));
  }
  return resp;
}

TEST(ServeLoopback, TracedCampaignsKeepDigestsAndFormOneTracePerCampaign) {
  // The full introspection stack on at once — tracing, metrics, /status
  // scrapes racing the campaign — must not move a single result bit, and
  // the recorded spans must form exactly one trace per submitted campaign
  // rooted at the submit client.
  ThreadGuard guard;
  CampaignSpecMsg spec = e2e_spec();
  spec.prefix_cache = 0;
  parallel::set_num_threads(1);
  const uint64_t offline = offline_digest(spec);

  obs::TelemetryScope scope(/*tracing=*/true, /*metrics=*/true);
  obs::reset_all();
  obs::clear_trace();
  obs::MetricsServer msrv(/*port=*/0);
  ASSERT_TRUE(msrv.ok()) << msrv.last_error();

  // Campaign 1: single-threaded executor-only path.
  const ServedRun r1 = serve_and_submit(spec, ServeOptions{});
  ASSERT_EQ(r1.code, 0) << r1.out;
  EXPECT_EQ(parse_digest(r1.out), offline);

  // Campaign 2: four threads + a worker stealing leases, with /status
  // hammered concurrently for the whole run.
  parallel::set_num_threads(4);
  ServeOptions sopts;
  sopts.lease_chunk = 1;
  std::atomic<bool> stop{false};
  std::atomic<bool> saw_server{false};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const std::string resp = http_get(msrv.port(), "/status");
      if (resp.find("\"server\":{") != std::string::npos &&
          resp.find("\"queue_depth\":") != std::string::npos) {
        saw_server.store(true, std::memory_order_relaxed);
      }
    }
  });
  std::ostringstream worker_out, worker_err;
  const ServedRun r2 = serve_and_submit(spec, sopts, nullptr, [&](int port) {
    WorkerOptions w;
    w.port = port;
    w.cache_dir = kCacheDir;
    w.poll_ms = 10;
    w.idle_timeout_ms = 30000;
    run_worker(w, worker_out, worker_err);
  });
  stop.store(true, std::memory_order_relaxed);
  scraper.join();
  ASSERT_EQ(r2.code, 0) << r2.out;
  EXPECT_EQ(parse_digest(r2.out), offline);
  // At least one scrape landed while the daemon had its status source
  // registered (the campaign runs for far longer than one scrape loop).
  EXPECT_TRUE(saw_server.load());

  // Everything ran in-process under one trace registry, so the merged
  // event set is exactly what `trace --merge` would reconstruct: one root
  // per campaign, each with the server-side spans as descendants.
  const auto events = obs::collect_trace();
  std::vector<const obs::TraceEvent*> roots;
  for (const auto& e : events) {
    if (e.trace_id != 0 && e.parent_span_id == 0) roots.push_back(&e);
  }
  ASSERT_EQ(roots.size(), 2u);
  EXPECT_NE(roots[0]->trace_id, roots[1]->trace_id);
  for (const obs::TraceEvent* root : roots) {
    EXPECT_EQ(root->name.rfind("submit", 0), 0u) << root->name;
    ASSERT_NE(root->span_id, 0u);
    int sessions = 0, executes = 0, leases = 0, queue_waits = 0;
    for (const auto& e : events) {
      if (e.trace_id != root->trace_id || &e == root) continue;
      // every non-root traced span hangs off some parent in the tree
      EXPECT_NE(e.parent_span_id, 0u) << e.name;
      if (e.name.rfind("server_session", 0) == 0) ++sessions;
      if (e.name.rfind("execute", 0) == 0) ++executes;
      if (e.name.rfind("queue_wait", 0) == 0) ++queue_waits;
      if (e.name.rfind("worker_lease", 0) == 0 ||
          e.name.rfind("lease_execute", 0) == 0) {
        ++leases;
      }
    }
    EXPECT_EQ(sessions, 1) << "trace " << root->trace_id;
    EXPECT_EQ(executes, 1) << "trace " << root->trace_id;
    EXPECT_EQ(queue_waits, 1) << "trace " << root->trace_id;
    EXPECT_GE(leases, 1) << "trace " << root->trace_id;
  }
  obs::clear_trace();
  obs::reset_all();
}

TEST(ServeLoopback, EndedSessionsAreJoined) {
  // One submit is one connection and one session thread, and an ended
  // thread keeps its stack until it is joined. The accept loop joins the
  // sessions that ended, so a daemon holds threads for its open
  // connections, not one per campaign it ever served.
  ServeOptions sopts;
  sopts.cache_dir = kCacheDir;
  Server server(sopts, nullptr);
  ASSERT_TRUE(server.ok()) << server.last_error();
  std::thread serve([&] { server.run(); });
  CampaignSpecMsg spec = e2e_spec();
  spec.injections_per_layer = 1;
  for (int i = 0; i < 8; ++i) {
    SubmitOptions sub;
    sub.port = server.port();
    sub.spec = spec;
    std::ostringstream out, err;
    ASSERT_EQ(run_submit(sub, nullptr, out, err), 0) << err.str();
  }
  // The last session, and the one before it if it was still winding down
  // when the last submit connected.
  EXPECT_LE(server.session_threads(), 2u);
  server.request_stop();
  serve.join();
}

TEST(ServeLoopback, SubmitAgainstDeadPortIsDiagnosed) {
  // Bind-then-close to obtain a port with nothing listening.
  int port = 0;
  {
    ListenResult lr = listen_loopback(0);
    ASSERT_TRUE(lr.sock.valid());
    port = lr.port;
  }
  SubmitOptions sub;
  sub.port = port;
  sub.spec = e2e_spec();
  std::ostringstream out, err;
  EXPECT_THROW(run_submit(sub, nullptr, out, err), NetError);
}

TEST(ServeLoopback, InvalidSpecIsRefusedWithServerError) {
  ServeOptions sopts;
  sopts.cache_dir = kCacheDir;
  sopts.max_campaigns = 1;
  Server server(sopts, nullptr);
  ASSERT_TRUE(server.ok()) << server.last_error();
  std::thread serve([&] { server.run(); });

  CampaignSpecMsg bad = e2e_spec();
  bad.format_spec = "not_a_format";
  SubmitOptions sub;
  sub.port = server.port();
  sub.spec = bad;
  std::ostringstream out, err;
  EXPECT_EQ(run_submit(sub, nullptr, out, err), 1);
  EXPECT_NE(err.str().find("server error"), std::string::npos) << err.str();
  serve.join();
}

TEST(ServeLoopback, MetadataCampaignOnValueOnlyFormatIsRefused) {
  // Served, the same spec gets the executor's error and submit exits 1,
  // where it used to fail inside the merge of zero trials.
  ServeOptions sopts;
  sopts.cache_dir = kCacheDir;
  sopts.max_campaigns = 1;
  Server server(sopts, nullptr);
  ASSERT_TRUE(server.ok()) << server.last_error();
  std::thread serve([&] { server.run(); });

  CampaignSpecMsg bad = e2e_spec();
  bad.site = static_cast<uint8_t>(core::InjectionSite::kMetadata);
  SubmitOptions sub;
  sub.port = server.port();
  sub.spec = bad;
  std::ostringstream out, err;
  EXPECT_EQ(run_submit(sub, nullptr, out, err), 1);
  EXPECT_NE(err.str().find("server error"), std::string::npos) << err.str();
  EXPECT_NE(err.str().find("no metadata register"), std::string::npos)
      << err.str();
  serve.join();
}

}  // namespace
}  // namespace ge::net
