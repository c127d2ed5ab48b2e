// Collective algorithms, each written once as a schedule builder
// (sched.hpp). A builder appends the calling member's rounds to `s`; the
// schedule's step kind decides whether its transfers are p2p messages or
// segment streams, and the caller picks the driver (blocking run() or the
// request engine's pump). Ranks are communicator-local; buffers and
// datatypes must outlive the schedule. Building charges no simulated time:
// every modelled cost (reductions, packing) sits in a post-action.
#pragma once

#include <cstddef>

#include "mpi/coll/sched.hpp"

namespace scimpi::mpi::coll {

/// Dissemination barrier: ceil(log2 n) rounds of one-byte tokens.
void barrier_dissemination(Sched& s);

/// Binomial tree from `root`: receive from the parent, then forward to the
/// children in descending-mask order.
void bcast_binomial(Sched& s, const XferView& v, std::size_t len, int root);
/// Flat fan-out: the root streams to every other rank in turn.
void bcast_flat(Sched& s, const XferView& v, std::size_t len, int root);
/// Van de Geijn large-message bcast: the root scatters byte blocks to all
/// ranks concurrently, then a ring allgather reassembles them, so the
/// root's port carries the payload once instead of once per subtree.
void bcast_scatter_ag(Sched& s, const XferView& v, std::size_t len, int root);

/// Binomial-tree sum of `n` doubles into `out` at `root`.
void reduce_binomial(Sched& s, const double* in, double* out, int n, int root);

/// Recursive doubling with the MPICH non-power-of-two fold/unfold.
void allreduce_rdouble(Sched& s, const double* in, double* out, int n);
/// Ring reduce-scatter followed by a ring allgather of the reduced blocks.
void allreduce_ring(Sched& s, const double* in, double* out, int n);
/// Binomial reduce to rank 0, then binomial bcast of the result.
void allreduce_reduce_bcast(Sched& s, const double* in, double* out, int n);

/// Ring: in round t every rank forwards the block that originated at r - t.
void allgather_ring(Sched& s, const void* in, std::size_t bytes_each, void* out);
/// Pairwise exchange of typed blocks: the send side packs `in` straight into
/// the peer's stream, the receive side unpacks straight into block `from`
/// of the result.
void allgather_flat_typed(Sched& s, const void* in, int count, const Datatype& type,
                          void* out);
/// Typed allgather staged through the canonical packed form: pack the local
/// block, ring the raw bytes, unpack the concatenation.
void allgather_staged_typed(Sched& s, const void* in, int count, const Datatype& type,
                            void* out);

/// Pairwise exchange: in round t swap with peers r + t and r - t.
void alltoall_pairwise(Sched& s, const void* in, std::size_t bytes_each, void* out);
/// Every pairwise transfer in one round: no step barriers, so per-edge
/// latencies overlap and a slow edge delays only its own block.
void alltoall_spread(Sched& s, const void* in, std::size_t bytes_each, void* out);

/// Flat gather to `root`, one peer per round.
void gather(Sched& s, const void* in, std::size_t bytes_each, void* out, int root);
/// Flat scatter from `root`, one peer per round.
void scatter(Sched& s, const void* in, std::size_t bytes_each, void* out, int root);

}  // namespace scimpi::mpi::coll
