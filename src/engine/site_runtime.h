#ifndef PEREACH_ENGINE_SITE_RUNTIME_H_
#define PEREACH_ENGINE_SITE_RUNTIME_H_

#include <string>
#include <vector>

#include "src/engine/fragment_context.h"
#include "src/index/boundary_dist_index.h"
#include "src/index/boundary_index.h"
#include "src/index/boundary_rpq_index.h"
#include "src/net/transport.h"
#include "src/util/serialization.h"
#include "src/util/status.h"

namespace pereach {

/// The SITE half of every PartialEvalEngine round: the query-dependent
/// sweeps and row re-encodings that run against one fragment plus its
/// FragmentContext — everything a site contributes to a round, with no
/// reference to coordinator state. Every backend reaches them through
/// RunSiteRound, which decodes a RoundSpec broadcast: kSim in-process over
/// the coordinator's own fragments, kSocket in the worker process and in
/// its degrade-local path. One round definition on every path is what makes
/// the backend differential suite (answers and modeled books bit-identical
/// across transports) hold by construction.

// Flag bits of a boundary sweep frame.
inline constexpr uint8_t kFrameHasS = 1;       // s-side list present
inline constexpr uint8_t kFrameHasT = 2;       // t-side list present
inline constexpr uint8_t kFrameLocalTrue = 4;  // decided inside this fragment
// Extra flag bit of a dist sweep frame: a local s -> t distance (within the
// query bound) is present. Unlike kFrameLocalTrue it does NOT end the frame
// — a cross-fragment route can still be shorter, so the lists follow.
inline constexpr uint8_t kFrameHasLocalDist = 4;

/// Rebases a partial answer produced against its own query-local oset table
/// onto the fragment's shared (batch-wide) table; the answer's own table is
/// dropped (batch bodies serialize against the shared one).
ReachPartialAnswer RebaseOntoSharedOset(ReachPartialAnswer pa,
                                        const FragmentContext& ctx);

/// Components that locally reach `t_comp` (ascending scan; component ids
/// are reverse topological).
std::vector<bool> ComponentsReaching(const Condensation& cond, uint32_t t_comp);

/// Components locally reachable from `s_comp` (descending scan).
std::vector<bool> ComponentsReachableFrom(const Condensation& cond,
                                          uint32_t s_comp);

/// Closure-form reach partial answer straight from the cached rows.
ReachPartialAnswer ReachFromCachedRows(const Fragment& f, FragmentContext* ctx,
                                       NodeId s, NodeId t);

/// Re-encodes a fragment's cached ReachRows into the global-id form the
/// coordinator's boundary index consumes.
BoundaryRows BuildBoundaryRows(const Fragment& f, FragmentContext* ctx);

/// Re-encodes a fragment's cached DistRows into the global-id form the
/// coordinator's weighted boundary index consumes.
WeightedBoundaryRows BuildWeightedBoundaryRows(const Fragment& f,
                                               FragmentContext* ctx);

/// Re-encodes a fragment's cached per-automaton product structures into the
/// global-id form the coordinator's product boundary index consumes.
ProductBoundaryRows BuildProductBoundaryRows(
    const Fragment& f, FragmentContext* ctx, const std::string& signature_key,
    const QueryAutomaton& canonical);

/// The query-dependent halves of one dist query at one fragment, encoded
/// for the weighted boundary answer path.
void EncodeDistSweepFrame(const Fragment& f, FragmentContext* ctx, NodeId s,
                          NodeId t, uint32_t bound, Encoder* body);

/// The query-dependent halves of one reach query at one fragment, encoded
/// for the boundary answer path.
void EncodeBoundarySweepFrame(const Fragment& f, FragmentContext* ctx,
                              NodeId s, NodeId t, Encoder* body);

/// The query-dependent halves of one regular query at one fragment, encoded
/// for the product-boundary answer path. `p` must be the fragment's product
/// for the query's canonical automaton.
void EncodeRpqSweepFrame(const Fragment& f, FragmentContext* ctx,
                         const FragmentContext::RpqProduct& p, NodeId s,
                         NodeId t, Encoder* body);

/// The worker entry point: decodes a round broadcast (tolerant decoding —
/// a corrupt or truncated payload returns Corruption, never aborts, so one
/// bad frame cannot kill a worker process) and produces the site's reply
/// for (kind, aux) against this fragment. `ctx` is the site's standing
/// cache; it must be reset (fresh FragmentContext) whenever the fragment
/// changes. kSim sites and the socket transport's degrade-local path
/// (DESIGN.md §13.2) call this same entry point over the coordinator's own
/// fragment, which is why their reply bytes are identical to a worker's.
Result<std::vector<uint8_t>> RunSiteRound(const Fragment& f,
                                          FragmentContext* ctx, RoundKind kind,
                                          uint8_t aux,
                                          const std::vector<uint8_t>& broadcast);

}  // namespace pereach

#endif  // PEREACH_ENGINE_SITE_RUNTIME_H_
