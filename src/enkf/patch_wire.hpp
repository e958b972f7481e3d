// Wire codec for grid patches used by every parcomm-based implementation,
// and rank 0's result gather built on it.
//
// The wire format of one block is: 4 u64 rect bounds, then a u64 count,
// then `count` doubles (the same framing as Packer::put_span, so the body
// reads back zero-copy as a grid::PatchView aliasing the payload bytes).
// Every field is 8 bytes, so block bodies are always 8-byte aligned
// however blocks are concatenated — the alignment contract
// Unpacker::view<double>() relies on.
#pragma once

#include <span>
#include <vector>

#include "grid/field.hpp"
#include "parcomm/communicator.hpp"
#include "parcomm/wire.hpp"

namespace senkf::enkf {

/// The view type the message plane trades in (see grid/field.hpp).
using PatchView = grid::PatchView;

/// Appends rect + values to the packer.  Accepts a view, so owning
/// Patches flow in via the implicit conversion and payload-backed views
/// are re-packed without materializing.
void pack_patch(parcomm::Packer& packer, const PatchView& patch);

/// Packs the sub-rectangle `block` of `bar` straight from the bar's row
/// storage (`block` must lie inside the bar's rect) — the
/// zero-intermediate path for scattering bar slices: no `extract` Patch
/// is ever built, and the body is copied exactly once (bar rows →
/// payload).
void pack_patch_block(parcomm::Packer& packer, const PatchView& bar,
                      grid::Rect block);

/// Exact wire size in bytes of a packed block over `rect` — for
/// Packer::reserve so a message is built with zero reallocation.
std::size_t packed_patch_size(grid::Rect rect);

/// Writes the framing of a block over `rect` and returns the writable
/// body span (`rect.count()` doubles) for the caller to fill in place —
/// the zero-intermediate path for producers that *compute* the block
/// (analysis projection) rather than copy it.  The span is invalidated
/// by the next append to `packer`; the resulting bytes are identical to
/// pack_patch of a patch holding the same values.
std::span<double> pack_patch_slot(parcomm::Packer& packer, grid::Rect rect);

/// Zero-copy read: returns a view aliasing the payload bytes in place.
/// Valid only while the payload lives — callers keep the SharedPayload
/// handle alongside the view (DESIGN.md §10).
PatchView unpack_patch_view(parcomm::Unpacker& unpacker);

/// Rank 0's half of the result gather that L-, P- and S-EnKF share.
/// Builds a zero field over `grid` for each of `n_fields` analysis slots,
/// inserts rank 0's own `results`, then receives one `tag` payload from
/// each of ranks 1 … n_ranks−1 in rank order and inserts it.  A result
/// payload is [u64 count]([u64 member][patch block])*; each block goes
/// straight from the payload bytes into fields[slot[member]] — no
/// intermediate Patch — and a member without a slot (member ≥
/// slot.size() or slot[member] ≥ n_fields: dropped or unknown) is
/// rejected.  The ranks' layer targets tile the grid, so every field must
/// receive exactly grid.size() values; any other count is a
/// ProtocolError, since a lost block would otherwise read as zeros.
std::vector<grid::Field> gather_results(parcomm::Communicator& world, int tag,
                                        int n_ranks,
                                        const grid::LatLonGrid& grid,
                                        std::span<const grid::Index> slot,
                                        std::size_t n_fields,
                                        const parcomm::SharedPayload& results);

}  // namespace senkf::enkf
