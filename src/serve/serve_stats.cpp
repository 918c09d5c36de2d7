#include "serve/serve_stats.hpp"

#include <limits>

#include "serve/stats_sink.hpp"

namespace hygcn::serve {

ServeStats
computeServeStats(const std::vector<RequestRecord> &requests,
                  const std::vector<BatchRecord> &batches,
                  const std::vector<InstanceRecord> &instances,
                  Cycle makespan, double clock_hz,
                  const std::vector<TenantMix> &tenants,
                  const std::vector<std::string> &class_labels)
{
    // A replay through the streaming sink: batches in id order, then
    // requests in id order. Reservoirs as large as the stream keep
    // every percentile exact.
    StreamingStatsSink sink(tenants.size(), class_labels.size(),
                            requests.size(), 0, 0, nullptr);
    for (const BatchRecord &batch : batches)
        sink.addBatch(batch.joules,
                      batch.instance < instances.size()
                          ? instances[batch.instance].classIndex
                          : std::numeric_limits<std::uint32_t>::max());

    // Service consumption charges each batch's cycles evenly across
    // its members, so the tenant shares are policy-agnostic and sum
    // to 1.
    for (const RequestRecord &r : requests) {
        double cycles = 0.0, joules = 0.0;
        if (r.batch < batches.size() &&
            !batches[r.batch].requestIds.empty()) {
            const BatchRecord &batch = batches[r.batch];
            const double size =
                static_cast<double>(batch.requestIds.size());
            cycles = static_cast<double>(batch.serviceCycles()) / size;
            joules = batch.joules / size;
        }
        sink.addRequest(r.tenant, r.latency(), r.queueWait(),
                        r.missedDeadline(), cycles, joules);
    }
    return sink.finish(instances, makespan, clock_hz, tenants,
                       class_labels);
}

} // namespace hygcn::serve
