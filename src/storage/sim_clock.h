// Virtual time. All query timing in this repository is measured in simulated
// microseconds, never wall-clock time, so every benchmark table is
// deterministic and machine-independent.
#ifndef PYTHIA_STORAGE_SIM_CLOCK_H_
#define PYTHIA_STORAGE_SIM_CLOCK_H_

#include <cstdint>

namespace pythia {

using SimTime = uint64_t;  // microseconds of virtual time

}  // namespace pythia

#endif  // PYTHIA_STORAGE_SIM_CLOCK_H_
