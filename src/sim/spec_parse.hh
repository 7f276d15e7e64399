/**
 * @file
 * Parsing and validation of experiment spec files (the JSON documents
 * committed under experiments/). The schema, all keys optional unless
 * noted:
 *
 *   {
 *     "name": "fig10",                 // required, [A-Za-z0-9_-]+
 *     "scenario": "fig10",             // registered scenario (default:
 *                                      // name; "sweep" = generic)
 *     "description": "one line",
 *     "mixes": ["Mix3"],               // default mix list (--mixes wins)
 *     "base": { "requests": 1200 },    // SimConfig overrides, in order
 *     "grid": { "queue": [1, 8, 64] }, // cross-product axes (in order,
 *                                      // rightmost fastest)
 *     "points": [                      // explicit named points
 *       { "name": "merge_q16",         //   required
 *         "mix": "Mix3",               //   optional mix pin
 *         "set": { "variant": "merge", "queue": 16 } }
 *     ],
 *     "params": { "trials": 200 },     // scenario-specific, free-form
 *     "output": { "out": "B.json" },   // default --out path
 *     "gate": { "metrics": ["execution_ticks"] },  // baseline-gate note
 *     "smoke": { "args": ["--trials=20"],          // CI smoke lane
 *                "trace": false }      // no Chrome trace to validate
 *   }
 *
 * Validation is strict and front-loaded:
 * unknown keys at any level, type mismatches, out-of-range values and
 * conflicting overrides (in `base`, every `points[].set`, and every
 * grid combination) are fatal at parse time with the spec file and
 * line in the message — never mid-sweep.
 */

#ifndef FP_SIM_SPEC_PARSE_HH
#define FP_SIM_SPEC_PARSE_HH

#include <string>

#include "sim/scenario.hh"

namespace fp::sim
{

/**
 * Parse and fully validate a spec document. @p path is used in error
 * messages and recorded as the spec source.
 */
ExperimentSpec parseSpecText(const std::string &text,
                             const std::string &path = "<inline>");

/** Read @p path and parse it; unreadable files are fatal. */
ExperimentSpec parseSpecFile(const std::string &path);

} // namespace fp::sim

#endif // FP_SIM_SPEC_PARSE_HH
