/**
 * @file
 * Pluggable routing objectives. Every ready batch is scored on each
 * candidate class (every free class, plus under lookahead each busy
 * class at its earliest free cycle) with the configured
 * RouteObjective, and goes to the lowest score (ties break on service
 * cycles, then wait, then least-recently-freed, then lowest instance
 * id) unless an affinity margin keeps it on the scenario's last
 * class. The "cycles" objective ranks on the integer completion
 * horizon directly. Three built-ins, selected by name through the
 * api::Registry ("cycles", "energy", "edp"):
 *
 *  - CyclesObjective: the legacy routing — minimize the batch's
 *    service cycles in the cluster time base.
 *  - EnergyObjective: minimize the joules the batch consumes (same
 *    joules per request, since every candidate serves the same
 *    batch), routing to the most energy-efficient free class even
 *    when a faster one is idle.
 *  - EdpObjective: minimize the energy-delay product
 *    joules(B) * seconds(B) — the classic middle ground that only
 *    tolerates extra latency when the energy saving outweighs it.
 *
 * This is the serving-tier face of the paper's energy results
 * (fig11/fig12, table 7): a heterogeneous cluster can trade a fast
 * expensive class against a slow efficient one.
 */

#ifndef HYGCN_SERVE_ROUTE_OBJECTIVE_HPP
#define HYGCN_SERVE_ROUTE_OBJECTIVE_HPP

#include <cstddef>
#include <string>

#include "sim/types.hpp"

namespace hygcn::serve {

/**
 * One candidate placement under queue-aware lookahead routing: the
 * batch's priced service time and energy on one instance class, plus
 * how long the class's least-loaded instance stays busy before it
 * could take the batch (0 when an instance is free right now). The
 * scheduler fills waitCycles from the per-class busy-until horizon
 * heaps, so scoring all classes costs no extra scans.
 */
struct RouteCandidate
{
    /** Index into the resolved cluster classes. */
    std::size_t classIndex = 0;

    /** Cycles until the class's earliest instance frees (0 = free). */
    Cycle waitCycles = 0;

    /** Priced service cycles of the batch on this class. */
    Cycle serviceCycles = 0;

    /** Priced energy of the batch on this class, joules. */
    double joules = 0.0;

    /** Batch size the curve was priced at. */
    std::size_t batchSize = 0;
};

/**
 * Routing scorer of the serving cluster. Stateless: score() maps one
 * candidate placement — the batch's priced service time and energy
 * on one instance class — to a comparable figure of merit (lower is
 * better). Cycles are in the cluster time base; @p clock_hz converts
 * them to seconds for objectives that mix time with energy.
 */
class RouteObjective
{
  public:
    virtual ~RouteObjective() = default;

    /** Registry key this objective answers to. */
    virtual std::string name() const = 0;

    /** Figure of merit of serving the batch on the candidate class;
     *  lower wins the dispatch. */
    virtual double score(Cycle service_cycles, double joules,
                         std::size_t batch_size,
                         double clock_hz) const = 0;

    /**
     * Horizon-aware figure of merit under lookahead routing: score
     * the placement including the wait until the class frees. The
     * default folds the wait into the delay term — the legacy score
     * evaluated at completion horizon (wait + service) — which is
     * exactly the free-class score when waitCycles is 0, so greedy
     * and lookahead agree on free candidates. Objectives whose
     * legacy score ignores delay (EnergyObjective) override this to
     * keep waiting from becoming free.
     */
    virtual double score(const RouteCandidate &candidate,
                         double clock_hz) const;

    /**
     * True when score() is exactly the batch's service cycles, so
     * the scheduler may rank candidates on the raw integer cycles
     * instead of round-tripping them through a double — the integer
     * compare is what the pre-objective scheduler did, and it is
     * immune to libm/toolchain drift. Only CyclesObjective answers
     * true among the built-ins.
     */
    virtual bool scoresServiceCycles() const { return false; }
};

/**
 * Relative tolerance under which two objective scores count as tied.
 * Scores are products/quotients of independently-priced doubles, so
 * exact == ties are toolchain-fragile: two classes meant to tie can
 * differ in the last ulp on one libm and not another, silently
 * flipping the documented cycles -> least-recently-freed -> lowest-id
 * tie chain. Anything within this relative band falls through to
 * that chain instead.
 */
inline constexpr double kScoreTieRelEps = 1e-12;

/**
 * Three-way compare of two objective scores under kScoreTieRelEps:
 * negative when @p a wins the dispatch, positive when @p b does,
 * 0 when they tie and the deterministic tie chain must decide.
 */
int compareScores(double a, double b);

/** Legacy cheapest-cycles routing ("cycles", the default). */
class CyclesObjective : public RouteObjective
{
  public:
    std::string name() const override { return "cycles"; }
    double score(Cycle service_cycles, double joules,
                 std::size_t batch_size, double clock_hz) const override;
    bool scoresServiceCycles() const override { return true; }
};

/** Joules-per-request routing ("energy"). */
class EnergyObjective : public RouteObjective
{
  public:
    std::string name() const override { return "energy"; }
    double score(Cycle service_cycles, double joules,
                 std::size_t batch_size, double clock_hz) const override;

    /**
     * Delay-damped energy: joules per request scaled by
     * (wait + service) / service. Pure joules would be
     * wait-invariant — the efficient class would absorb unbounded
     * queueing — so the wait inflates the score in proportion to the
     * stall it costs, capping how long a batch holds for the
     * efficient class at roughly (J_other/J_self - 1) x service. At
     * waitCycles 0 this is exactly the free-class score.
     */
    double score(const RouteCandidate &candidate,
                 double clock_hz) const override;
};

/** Energy-delay-product routing ("edp"). */
class EdpObjective : public RouteObjective
{
  public:
    std::string name() const override { return "edp"; }
    double score(Cycle service_cycles, double joules,
                 std::size_t batch_size, double clock_hz) const override;
};

} // namespace hygcn::serve

#endif // HYGCN_SERVE_ROUTE_OBJECTIVE_HPP
