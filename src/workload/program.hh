/**
 * @file
 * Workload program interfaces. An InstrSource produces the micro-op
 * stream of one thread; kernels are C++20 coroutines writing through
 * an Emitter (see emitter.hh). The AddressSpace bump allocator gives
 * kernels realistic, disjoint data layouts.
 */

#ifndef MTSIM_WORKLOAD_PROGRAM_HH
#define MTSIM_WORKLOAD_PROGRAM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "common/types.hh"
#include "isa/micro_op.hh"

namespace mtsim {

/** Pull interface the processor fetch stage consumes. */
class InstrSource
{
  public:
    virtual ~InstrSource() = default;

    /**
     * Produce the next micro-op in program order, overwriting all of
     * @p op (the caller may pass a slot holding an older op).
     * @return false when the program has terminated.
     */
    virtual bool next(MicroOp &op) = 0;
};

/**
 * Bump allocator carving a thread's (or application's) data segment.
 * There is no virtual-memory translation in the model beyond TLB
 * timing, so distinct applications simply live at distinct bases.
 */
class AddressSpace
{
  public:
    explicit AddressSpace(Addr base) : next_(base) {}

    /** Allocate @p bytes aligned to @p align (power of two). */
    Addr
    alloc(std::uint64_t bytes, std::uint64_t align = 64)
    {
        next_ = (next_ + align - 1) & ~(align - 1);
        Addr result = next_;
        next_ += bytes;
        return result;
    }

    Addr top() const { return next_; }

  private:
    Addr next_;
};

class Emitter;
class KernelCoro;

/** Factory signature every workload kernel exposes. */
using KernelFn = std::function<KernelCoro(Emitter &)>;

/** A named kernel plus the address-space size hint it wants. */
struct WorkloadSpec
{
    std::string name;
    KernelFn kernel;
};

} // namespace mtsim

#endif // MTSIM_WORKLOAD_PROGRAM_HH
