#ifndef SPLITWISE_TELEMETRY_TELEMETRY_H_
#define SPLITWISE_TELEMETRY_TELEMETRY_H_

/**
 * @file
 * Telemetry facade: configuration plus the TELEM_* instrumentation
 * macros used on simulation hot paths. Instrumentation is always
 * compiled in; with no recorder attached (the default at runtime),
 * each macro costs one pointer test.
 */

#include "sim/time.h"
#include "telemetry/metrics_registry.h"
#include "telemetry/span_tracker.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace_recorder.h"

namespace splitwise::telemetry {

/** Per-run telemetry switches, carried inside core::SimConfig. */
struct TelemetryConfig {
    /** Record request/machine lifecycle spans for Perfetto export. */
    bool traceEnabled = false;
    /**
     * Fixed time-series sampling interval; 0 disables the sampler.
     * Fault epochs additionally trigger on-event samples.
     */
    sim::TimeUs sampleIntervalUs = 0;

    /**
     * Track per-request causal span timelines (SpanTracker): latency
     * breakdown, SLO-breach exemplars, flight recorder. Independent
     * of traceEnabled — span tracking holds O(live requests), not
     * O(events), so it scales to runs where full tracing cannot.
     */
    bool spanTracking = false;

    /** Worst-offender exemplar timelines kept (0 disables). */
    int exemplarK = 3;

    /** True when any telemetry stream is requested. */
    bool
    any() const
    {
        return traceEnabled || spanTracking || sampleIntervalUs > 0;
    }
};

}  // namespace splitwise::telemetry

/** Open a span: TELEM_SPAN_BEGIN(rec, track, "name", now[, {args}]). */
#define TELEM_SPAN_BEGIN(rec, track, name, now, ...) \
    do { \
        if (rec) \
            (rec)->begin((track), (name), (now), ##__VA_ARGS__); \
    } while (0)

/** Close the innermost span on a track. */
#define TELEM_SPAN_END(rec, track, now) \
    do { \
        if (rec) \
            (rec)->end((track), (now)); \
    } while (0)

/** Exclusive phase change (request lifecycle idiom). */
#define TELEM_TRANSITION(rec, track, name, now, ...) \
    do { \
        if (rec) \
            (rec)->transition((track), (name), (now), ##__VA_ARGS__); \
    } while (0)

/** Close whatever span a track has open. */
#define TELEM_CLOSE(rec, track, now) \
    do { \
        if (rec) \
            (rec)->close((track), (now)); \
    } while (0)

/** Zero-duration instant event. */
#define TELEM_INSTANT(rec, track, name, now, ...) \
    do { \
        if (rec) \
            (rec)->instant((track), (name), (now), ##__VA_ARGS__); \
    } while (0)

/** Move a request between SpanTracker attribution phases. */
#define TELEM_REQ_PHASE(spans, id, phase, now) \
    do { \
        if (spans) \
            (spans)->transition((id), (phase), (now)); \
    } while (0)

/** Fold a crash-restarted request's work into restart_penalty. */
#define TELEM_REQ_RESTART(spans, id, now) \
    do { \
        if (spans) \
            (spans)->restart((id), (now)); \
    } while (0)

/** Finish a request's timeline (slowdown ranks exemplars). */
#define TELEM_REQ_COMPLETE(spans, id, now, slowdown) \
    do { \
        if (spans) \
            (spans)->complete((id), (now), (slowdown)); \
    } while (0)

/** Source side of a cross-track flow arrow. */
#define TELEM_FLOW_START(rec, track, name, now, id) \
    do { \
        if (rec) \
            (rec)->flowStart((track), (name), (now), (id)); \
    } while (0)

/** Intermediate flow point. */
#define TELEM_FLOW_STEP(rec, track, name, now, id) \
    do { \
        if (rec) \
            (rec)->flowStep((track), (name), (now), (id)); \
    } while (0)

/** Destination side of a cross-track flow arrow. */
#define TELEM_FLOW_END(rec, track, name, now, id) \
    do { \
        if (rec) \
            (rec)->flowEnd((track), (name), (now), (id)); \
    } while (0)

#endif  // SPLITWISE_TELEMETRY_TELEMETRY_H_
