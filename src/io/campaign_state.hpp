// Campaign checkpoint/shard files: a core::CampaignProgress in a "CAMP"
// container section. The struct itself lives in core/campaign.hpp (it is
// campaign state first, a file second); this unit only moves it between
// memory and bytes, so ge_io depends on the core *headers* but never on
// ge_core code.
//
// CAMP payload layout (little-endian; see container.hpp for the framing):
//   str format_spec, u8 site, u8 error_model, i64 injections_per_layer,
//   u32 num_bits, u64 seed, u32 shards, u32 shard_index,
//   str model_name, i64 eval_samples, f32 golden_accuracy,
//   u64 golden_digest (FNV-1a over golden logit bytes),
//   u64 layer count, then per layer:
//     u64 site_index, str path, u64 trials,
//     trials * u8 done flag,
//     trials * outcome {i64 mismatched_samples, f32 mismatch_rate,
//                       f32 delta_loss, f32 max_delta_loss, u8 sdc}
//   then tagged trailing fields, each present only after the one before:
//     "SPT1" u32 sites_per_trial, "EMZ1" f64 ber + u32 burst_len,
//     "BSG1" u32 ber_sampler (Bernoulli sampler generation; 1 if absent)
//
// Evolution rule: in container v2+ files, writers may append new fields
// after this layout; readers decode what they know and skip the rest
// (v1 files stay strict — trailing bytes there are corruption).
#pragma once

#include <string>
#include <vector>

#include "core/campaign.hpp"
#include "io/container.hpp"

namespace ge::io {

std::vector<uint8_t> encode_campaign_progress(
    const core::CampaignProgress& progress);
core::CampaignProgress decode_campaign_progress(ByteReader& r);

/// Write `progress` as a .gec campaign file (atomic tmp+rename). Bumps
/// the checkpoint_writes counter and records an "io"/"checkpoint_write"
/// span. Throws IoError on I/O failure.
void save_campaign_progress(const std::string& path,
                            const core::CampaignProgress& progress);

/// Parse a campaign .gec file (magic/version/CRC-checked). Throws IoError
/// on a missing, corrupt, or non-campaign file.
core::CampaignProgress load_campaign_progress(const std::string& path);

}  // namespace ge::io
