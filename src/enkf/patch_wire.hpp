// Wire codec for the grid blocks that L- and S-EnKF scatter to their
// computation ranks.  Results never travel: every rank writes its layer
// targets straight into the output fields (DESIGN.md §15).
//
// The wire format of one block is: 4 u64 rect bounds, then a u64 count,
// then `count` doubles (the same framing as Packer::put_span, so the body
// reads back zero-copy as a grid::PatchView aliasing the payload bytes).
// Every field is 8 bytes, so block bodies are always 8-byte aligned
// however blocks are concatenated — the alignment contract
// Unpacker::view<double>() relies on.
#pragma once

#include "grid/field.hpp"
#include "parcomm/wire.hpp"

namespace senkf::enkf {

/// The view type the message plane trades in (see grid/field.hpp).
using PatchView = grid::PatchView;

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

/// Zero-copy read: returns a view aliasing the payload bytes in place.
/// Valid only while the payload lives — callers keep the SharedPayload
/// handle alongside the view (DESIGN.md §10).
PatchView unpack_patch_view(parcomm::Unpacker& unpacker);

}  // namespace senkf::enkf
