// ge::net message codec — typed payloads for the campaign-service frames
// (net/frame.hpp), encoded with io::ByteWriter/ByteReader so the wire
// format shares the .gec little-endian discipline.
//
// Forward-compat rule (same as v2 CAMP payloads): every decoder reads the
// fields it knows and ignores trailing bytes, so a newer peer may append
// fields without breaking this reader. Nested messages (the CampaignSpec
// inside a LeaseGrant) are length-prefixed blobs so the rule applies at
// every nesting level. Decode failures throw net::NetError naming the
// caller's context — a lying peer is a diagnosed error, never UB
// (ByteReader bounds-checks every read).
//
// Frame type -> payload message:
//   kHello         HelloMsg
//   kSubmit        CampaignSpecMsg
//   kLogRow        raw UTF-8 JSONL line (no codec; bytes are the message)
//   kDone          DoneMsg
//   kError         ErrorMsg
//   kLeaseRequest  (empty)
//   kLeaseGrant    LeaseGrantMsg
//   kLeaseResult   LeaseResultMsg
//   kHeartbeat     HeartbeatMsg
//   kNoWork        (empty)
//   kShutdown      (empty)
//   kCheckpointed  CheckpointedMsg
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace ge::net {

/// Client handshake, first frame on every connection.
struct HelloMsg {
  static constexpr uint8_t kRoleSubmit = 0;
  static constexpr uint8_t kRoleWorker = 1;
  uint8_t role = kRoleSubmit;
  std::string client;  ///< free-form identity for server logs
};

/// Everything the server (or a leased worker) needs to reconstruct a
/// campaign bitwise: the CLI-level campaign parameters. Model weights are
/// NOT shipped — both sides load (or, on a miss, train) them from their
/// cache dir, and deterministic synthetic training plus the golden-digest
/// tripwire in merge/resume guarantee (or detect) weight agreement.
struct CampaignSpecMsg {
  std::string model_name = "simple_cnn";
  int64_t epochs = 6;
  int64_t samples = 16;
  std::string format_spec;
  uint8_t site = 0;         ///< core::InjectionSite as wire byte
  uint8_t error_model = 0;  ///< core::ErrorModel as wire byte
  int64_t injections_per_layer = 50;
  uint64_t seed = 1234;
  int32_t sites_per_trial = 1;
  double ber = 0.0;
  int32_t burst_len = 2;
  uint8_t prefix_cache = 1;
  // Distributed-trace context, carried as a *tagged trailing field*
  // (kTraceTag + two u64s) after the fields above: PR 9 decoders ignore it
  // as trailing bytes, and this decoder treats its absence as "no context"
  // — forward and backward compatible by construction. Zero = untraced.
  // Telemetry-only: never feeds seeds, chunking, or any computed value.
  uint64_t trace_id = 0;
  uint64_t parent_span_id = 0;
};

/// Marker for the optional trace-context trailing field on
/// CampaignSpecMsg ("GTRC" little-endian). A 4-byte magic plus the
/// remaining-length check make a stray trailing blob from some other
/// future field vanishingly unlikely to alias it.
constexpr uint32_t kTraceTag = 0x43525447u;

/// Server -> worker: run trials [lo,hi) of this campaign. The lease_id is
/// echoed in heartbeats and the result; a reclaimed lease's id is dead and
/// its late result is discarded.
struct LeaseGrantMsg {
  uint64_t campaign_id = 0;
  uint64_t lease_id = 0;
  uint64_t lo = 0;
  uint64_t hi = 0;
  uint32_t heartbeat_ms = 0;  ///< renew at least this often or be reclaimed
  CampaignSpecMsg spec;
};

/// Worker -> server: the finished lease's CampaignProgress, serialized
/// with io::encode_campaign_progress (the CAMP payload bytes).
struct LeaseResultMsg {
  uint64_t campaign_id = 0;
  uint64_t lease_id = 0;
  std::vector<uint8_t> progress;
};

struct HeartbeatMsg {
  uint64_t campaign_id = 0;
  uint64_t lease_id = 0;
};

/// Server -> submit client: campaign complete.
struct DoneMsg {
  uint64_t digest = 0;  ///< campaign_digest(finalize_campaign(...))
  float golden_accuracy = 0.0f;
  std::string summary;  ///< the offline CLI's stdout table, verbatim
};

struct ErrorMsg {
  std::string message;
};

/// Server -> submit client: daemon drained before this campaign finished;
/// partial progress was checkpointed to `path` (resumable offline).
struct CheckpointedMsg {
  std::string path;
  int64_t completed_trials = 0;
  int64_t total_trials = 0;
};

std::vector<uint8_t> encode_hello(const HelloMsg& m);
HelloMsg decode_hello(const std::vector<uint8_t>& payload,
                      const std::string& context);

std::vector<uint8_t> encode_campaign_spec(const CampaignSpecMsg& m);
CampaignSpecMsg decode_campaign_spec(const std::vector<uint8_t>& payload,
                                     const std::string& context);

std::vector<uint8_t> encode_lease_grant(const LeaseGrantMsg& m);
LeaseGrantMsg decode_lease_grant(const std::vector<uint8_t>& payload,
                                 const std::string& context);

std::vector<uint8_t> encode_lease_result(const LeaseResultMsg& m);
LeaseResultMsg decode_lease_result(const std::vector<uint8_t>& payload,
                                   const std::string& context);

std::vector<uint8_t> encode_heartbeat(const HeartbeatMsg& m);
HeartbeatMsg decode_heartbeat(const std::vector<uint8_t>& payload,
                              const std::string& context);

std::vector<uint8_t> encode_done(const DoneMsg& m);
DoneMsg decode_done(const std::vector<uint8_t>& payload,
                    const std::string& context);

std::vector<uint8_t> encode_error(const ErrorMsg& m);
ErrorMsg decode_error(const std::vector<uint8_t>& payload,
                      const std::string& context);

std::vector<uint8_t> encode_checkpointed(const CheckpointedMsg& m);
CheckpointedMsg decode_checkpointed(const std::vector<uint8_t>& payload,
                                    const std::string& context);

}  // namespace ge::net
