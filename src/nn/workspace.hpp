// Pooled inference workspaces.
//
// A WorkspaceArena recycles tensor storage and scratch buffers across
// forward passes so steady-state inference performs no heap allocations:
// the first batch through a network grows the pool to the high-water
// mark, and every subsequent batch of the same (or smaller) shape is
// served entirely from recycled buffers. Layer::infer(input, ws), the
// one inference entry point, draws its outputs and im2col/col scratch
// from the arena instead of constructing fresh Tensors; callers with no
// long-lived arena make a local one.
//
// Contracts:
//   * take() returns a tensor with UNSPECIFIED contents — callers must
//     fully overwrite it (every arena-aware kernel in this library does).
//     This is what makes reuse free: no clearing on the hot path.
//   * scratch() spans are valid until the enclosing ScratchScope (or the
//     arena) releases them; nested scopes restore the cursor on exit, so
//     composed kernels (conv inside sequential) reuse the same slabs.
//   * An arena is single-owner: one thread calls take/recycle/scratch.
//     Kernels may still parallel_for over disjoint slices of an
//     arena-backed buffer — the arena itself is not touched from workers.
//   * Numerics are untouched: the arena decides only where outputs and
//     scratch live, never the arithmetic or its order, so a warm arena
//     and a fresh one give bitwise identical results (the determinism
//     suite proves it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "nn/tensor.hpp"

namespace hsdl::nn {

class WorkspaceArena {
 public:
  WorkspaceArena() = default;
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

  /// Tensor of `shape` with unspecified contents, backed by recycled
  /// storage when a pooled buffer is large enough (smallest adequate
  /// buffer wins; ties keep pool order stable, so the buffer-to-role
  /// assignment is deterministic across identical batches).
  Tensor take(std::vector<std::size_t> shape);

  /// Returns a tensor's storage to the pool for future take() calls.
  void recycle(Tensor t);

  /// Scratch span of `n` floats, unspecified contents, valid until the
  /// cursor is rewound past it (ScratchScope / release_scratch).
  std::span<float> scratch(std::size_t n);

  /// Rewinds the scratch cursor to zero; buffers are retained.
  void release_scratch() { scratch_used_ = 0; }

  struct Stats {
    std::uint64_t takes = 0;        ///< take() calls
    std::uint64_t allocations = 0;  ///< takes/scratches that had to allocate
    std::uint64_t reuses = 0;       ///< takes served from the pool
    std::size_t bytes_reserved = 0; ///< pool + scratch high-water footprint
  };
  Stats stats() const;

  /// Current scratch cursor (for ScratchScope).
  std::size_t scratch_mark() const { return scratch_used_; }
  void rewind_scratch(std::size_t mark) { scratch_used_ = mark; }

 private:
  std::vector<std::vector<float>> pool_;     // recycled tensor storage
  std::vector<std::vector<float>> scratch_;  // slabs, indexed by cursor
  std::size_t scratch_used_ = 0;
  std::uint64_t takes_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t reuses_ = 0;
};

/// RAII scratch cursor guard: kernels wrap their scratch() calls in a
/// scope so slabs are reusable by the next kernel the moment the scope
/// exits, while outer scopes' slabs stay live.
class ScratchScope {
 public:
  explicit ScratchScope(WorkspaceArena& ws)
      : ws_(ws), mark_(ws.scratch_mark()) {}
  ~ScratchScope() { ws_.rewind_scratch(mark_); }
  ScratchScope(const ScratchScope&) = delete;
  ScratchScope& operator=(const ScratchScope&) = delete;

 private:
  WorkspaceArena& ws_;
  std::size_t mark_;
};

}  // namespace hsdl::nn
