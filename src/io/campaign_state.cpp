#include "io/campaign_state.hpp"

#include "obs/telemetry.hpp"

namespace ge::io {

namespace {

constexpr const char* kCampaignTag = "CAMP";

// Believable bound on per-layer trial counts: a corrupt count must fail
// fast, not size gigabyte vectors. Each stored trial occupies >= 21
// payload bytes, so honest files stay far below this.
constexpr uint64_t kMaxTrials = uint64_t{1} << 32;

// Trailing-field tag for CampaignProgress::sites_per_trial ("SPT1").
// Fields appended after the original CAMP layout must be tagged: the v2
// skip rule lets old readers ignore them, and the tag lets this reader
// tell its own field apart from arbitrary unknown trailing data (which is
// skipped, leaving the default).
constexpr uint32_t kSitesPerTrialTag = 0x53505431;

// Trailing-field tag for the error-model-zoo knobs ("EMZ1"): f64 ber +
// u32 burst_len. Written after the SPT1 field; same skip semantics.
constexpr uint32_t kErrorModelZooTag = 0x454D5A31;

// Trailing-field tag for the Bernoulli sampler generation ("BSG1"): u32.
// Written after EMZ1; a file without it was drawn by generation 1.
constexpr uint32_t kBerSamplerTag = 0x42534731;

void encode_outcome(ByteWriter& w, const core::FaultOutcome& o) {
  w.i64(o.mismatched_samples);
  w.f32(o.mismatch_rate);
  w.f32(o.delta_loss);
  w.f32(o.max_delta_loss);
  w.u8(o.sdc ? 1 : 0);
}

core::FaultOutcome decode_outcome(ByteReader& r) {
  core::FaultOutcome o;
  o.mismatched_samples = r.i64();
  o.mismatch_rate = r.f32();
  o.delta_loss = r.f32();
  o.max_delta_loss = r.f32();
  o.sdc = r.u8() != 0;
  return o;
}

}  // namespace

std::vector<uint8_t> encode_campaign_progress(
    const core::CampaignProgress& p) {
  ByteWriter w;
  w.str(p.format_spec);
  w.u8(static_cast<uint8_t>(p.site));
  w.u8(static_cast<uint8_t>(p.model));
  w.i64(p.injections_per_layer);
  w.u32(static_cast<uint32_t>(p.num_bits));
  w.u64(p.seed);
  w.u32(static_cast<uint32_t>(p.shards));
  w.u32(static_cast<uint32_t>(p.shard_index));
  w.str(p.model_name);
  w.i64(p.eval_samples);
  w.f32(p.golden_accuracy);
  w.u64(p.golden_digest);
  w.u64(p.layers.size());
  for (const core::LayerProgress& l : p.layers) {
    w.u64(l.site_index);
    w.str(l.path);
    w.u64(l.done.size());
    w.raw(l.done.data(), l.done.size());
    for (const core::FaultOutcome& o : l.outcomes) encode_outcome(w, o);
  }
  w.u32(kSitesPerTrialTag);
  w.u32(static_cast<uint32_t>(p.sites_per_trial));
  w.u32(kErrorModelZooTag);
  w.f64(p.ber);
  w.u32(static_cast<uint32_t>(p.burst_len));
  w.u32(kBerSamplerTag);
  w.u32(static_cast<uint32_t>(p.ber_sampler));
  return w.take();
}

core::CampaignProgress decode_campaign_progress(ByteReader& r) {
  core::CampaignProgress p;
  p.format_spec = r.str();
  const uint8_t site = r.u8();
  if (site > static_cast<uint8_t>(core::InjectionSite::kMetadata)) {
    throw IoError(r.context() + ": corrupt injection site tag");
  }
  p.site = static_cast<core::InjectionSite>(site);
  const uint8_t model = r.u8();
  if (model > static_cast<uint8_t>(core::ErrorModel::kChannel)) {
    throw IoError(r.context() + ": corrupt error model tag");
  }
  p.model = static_cast<core::ErrorModel>(model);
  p.injections_per_layer = r.i64();
  p.num_bits = static_cast<int>(r.u32());
  p.seed = r.u64();
  p.shards = static_cast<int>(r.u32());
  p.shard_index = static_cast<int>(r.u32());
  p.model_name = r.str();
  p.eval_samples = r.i64();
  p.golden_accuracy = r.f32();
  p.golden_digest = r.u64();
  const uint64_t layer_count = r.u64();
  for (uint64_t i = 0; i < layer_count; ++i) {
    core::LayerProgress l;
    l.site_index = r.u64();
    l.path = r.str();
    const uint64_t trials = r.u64();
    if (trials > kMaxTrials) {
      throw IoError(r.context() + ": implausible trial count " +
                    std::to_string(trials));
    }
    r.require(static_cast<size_t>(trials));  // before sizing any vector
    l.done.resize(static_cast<size_t>(trials));
    r.raw(l.done.data(), l.done.size());
    for (uint8_t& flag : l.done) {
      if (flag > 1) {
        throw IoError(r.context() + ": corrupt trial completion flag");
      }
    }
    l.outcomes.reserve(static_cast<size_t>(trials));
    for (uint64_t t = 0; t < trials; ++t) {
      l.outcomes.push_back(decode_outcome(r));
    }
    p.layers.push_back(std::move(l));
  }
  // Tagged trailing field (absent in files written before it existed, and
  // shorter than a tag+value in the forward-compat junk drill): only a
  // matching tag claims the bytes. A mismatching u32 is unknown trailing
  // data — consumed or not, parsing stops here and the skip rule covers it.
  p.ber_sampler = 1;  // unless the BSG1 field below says otherwise
  if (r.remaining() >= 8 && r.u32() == kSitesPerTrialTag) {
    const uint32_t spt = r.u32();
    if (spt < 1) {
      throw IoError(r.context() + ": corrupt sites_per_trial");
    }
    p.sites_per_trial = static_cast<int>(spt);
    // Next tagged field, introduced after SPT1; files older than it (or
    // with unknown data here) leave the zoo knobs at their defaults.
    if (r.remaining() >= 16 && r.u32() == kErrorModelZooTag) {
      p.ber = r.f64();
      p.burst_len = static_cast<int>(r.u32());
      if (!(p.ber >= 0.0 && p.ber <= 1.0) || p.burst_len < 1) {
        throw IoError(r.context() + ": corrupt error-model-zoo field");
      }
      if (r.remaining() >= 8 && r.u32() == kBerSamplerTag) {
        const uint32_t gen = r.u32();
        if (gen < 1) {
          throw IoError(r.context() + ": corrupt ber sampler generation");
        }
        p.ber_sampler = static_cast<int>(gen);
      }
    }
  }
  return p;
}

void save_campaign_progress(const std::string& path,
                            const core::CampaignProgress& progress) {
  obs::Span span("io", "checkpoint_write", path);
  Container c;
  c.add(kCampaignTag, encode_campaign_progress(progress));
  save_file(path, c);
  obs::add(obs::Counter::kCheckpointWrites);
}

core::CampaignProgress load_campaign_progress(const std::string& path) {
  const Container c = load_file(path);
  const Section& s = c.require(kCampaignTag, path);
  ByteReader r(s.payload, path);
  core::CampaignProgress p = decode_campaign_progress(r);
  // Version-gated forward compatibility (ROADMAP "schema evolution"): from
  // container v2 on, CAMP payloads may grow trailing fields that newer
  // writers append and this reader does not know — skip them. v1 files
  // predate the rule, so leftovers there still mean corruption.
  if (!r.at_end() && c.version() < 2) {
    throw IoError(path + ": trailing bytes in campaign section");
  }
  return p;
}

}  // namespace ge::io
