/**
 * @file
 * The 11 studied bugs (§5.3) as injection flags.
 *
 * Bugs marked real ("*" in the paper) were actual Gem5 bugs; the others
 * are artificially injected. Each bug is a single suppressed action or
 * removed transition in an otherwise-correct implementation. The
 * allBugs() table in bugs.cc describes each one; its injection point is
 * the controller code that tests its BugId (LQ/SQ bugs in cpu/core.cc,
 * the rest in the mesi/ and tsocc/ L1 and L2 controllers).
 */

#ifndef MCVERSI_SIM_BUGS_HH
#define MCVERSI_SIM_BUGS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace mcversi::sim {

/** Identifier of a (possibly injected) bug. */
enum class BugId : std::uint8_t {
    None,
    /** L1 does not flag data consumed in IS_I as invalidated. (real) */
    MesiLqIsInv,
    /** L1 in SM drops the LQ forward on Inv. (real) */
    MesiLqSmInv,
    /** L1 in E drops the LQ forward on recall-invalidation. */
    MesiLqEInv,
    /** L1 in M drops the LQ forward on recall-invalidation. */
    MesiLqMInv,
    /** L1 S-state replacement does not notify the LQ. */
    MesiLqSReplacement,
    /** L2 lacks the transition for a PUTX racing a grant. (real) */
    MesiPutxRace,
    /** L2 drops a racing dirty PUTX on a clean-granted block. */
    MesiReplaceRace,
    /** TSO-CC timestamp resets without epoch-ids. */
    TsoccNoEpochIds,
    /** TSO-CC self-invalidation on '>' instead of '>='. */
    TsoccCompare,
    /** LQ ignores forwarded invalidations entirely. (real) */
    LqNoTso,
    /** SQ drains out of order instead of FIFO. */
    SqNoFifo,
};

/** Which protocol a bug applies to. */
enum class ProtocolKind : std::uint8_t {
    Mesi,
    Tsocc,
    /** Core-level bugs applicable under either protocol. */
    Any,
};

/** Static description of one studied bug. */
struct BugInfo
{
    BugId id;
    /** Paper's name, e.g. "MESI,LQ+IS,Inv". */
    const char *name;
    ProtocolKind protocol;
    /** True for bugs that were real Gem5 bugs ("*" in §5.3). */
    bool real;
    const char *description;
};

/** All 11 studied bugs, in the paper's Table 4 order. */
const std::vector<BugInfo> &allBugs();

/** Metadata for one bug id (BugId::None allowed). */
const BugInfo &bugInfo(BugId id);

/**
 * Lookup by paper name, case-insensitive; "none" resolves to the
 * BugId::None metadata. Returns nullptr for unknown names.
 */
const BugInfo *findBugByName(const std::string &name);

/** Lookup by paper name (case-insensitive); BugId::None if unknown. */
BugId bugByName(const std::string &name);

} // namespace mcversi::sim

#endif // MCVERSI_SIM_BUGS_HH
