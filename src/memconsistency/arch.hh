/**
 * @file
 * Memory consistency model factories.
 *
 * Following the herding cats framework, a model is defined by which
 * program-order pairs it preserves (ppo), which fences it provides, and
 * whether internal read-from participates in global ordering. Every
 * model is a declarative ModelProfile interpreted by ProfileModel
 * (models/engine.hh); the checker (checker.hh) combines its edges with
 * the observed conflict orders.
 */

#ifndef MCVERSI_MEMCONSISTENCY_ARCH_HH
#define MCVERSI_MEMCONSISTENCY_ARCH_HH

#include <string>

#include "memconsistency/models/engine.hh"

namespace mcversi::mc {

/**
 * Instantiate a registered consistency model (models/registry.hh) by
 * name, case-insensitively: "sc", "tso", "pso", "rmo", "rc". Throws
 * std::invalid_argument listing the registered models on an unknown
 * name.
 */
ProfileModel makeModel(const std::string &name);

/** Sequential Consistency: ppo = po, all rf global. */
ProfileModel makeSc();

/**
 * Total Store Order (x86-style): ppo = po minus write-to-read pairs;
 * atomic RMW instructions imply full fences; internal rf not global.
 */
ProfileModel makeTso();

} // namespace mcversi::mc

#endif // MCVERSI_MEMCONSISTENCY_ARCH_HH
