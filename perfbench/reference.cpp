// A fixed unit of work that does not touch the library: the host-speed
// reference the timed phases interleave with their own work (see
// reference.hpp).
#include "reference.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <functional>
#include <new>

namespace perfbench {
namespace {

constexpr std::uint32_t kNodes = 4096;
constexpr std::uint32_t kDegree = 8;
constexpr std::uint32_t kFloods = 2;
// A node expands once per flood, so a flood pushes at most this many events.
constexpr std::size_t kHeapCapacity = std::size_t{kNodes} * kDegree + 1;

std::uint64_t next(std::uint64_t& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

}  // namespace

std::uint64_t reference_unit() {
  // Fresh pages from the kernel, not from malloc: the unit's cost does not
  // depend on the process's heap, and the heap's layout, which sets the
  // trials' peak RSS, does not depend on when the samples were taken.
  const std::size_t adj_count = std::size_t{kNodes} * kDegree;
  const std::size_t bytes = adj_count * sizeof(std::uint32_t) +
                            kNodes * sizeof(std::uint32_t) +
                            kHeapCapacity * sizeof(std::uint64_t);
  void* region = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (region == MAP_FAILED) throw std::bad_alloc();
  auto* adj = static_cast<std::uint32_t*>(region);
  auto* reached = adj + adj_count;
  auto* heap = reinterpret_cast<std::uint64_t*>(reached + kNodes);

  // A random kDegree-out multigraph, the same on every call.
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  for (std::size_t i = 0; i < adj_count; ++i) {
    adj[i] = static_cast<std::uint32_t>(next(rng) % kNodes);
  }

  // Flooding with random link delays, event by event through a binary
  // heap of (time << 32 | node), as the engine's queue delivers messages.
  std::uint64_t checksum = 0;
  for (std::uint32_t flood = 0; flood < kFloods; ++flood) {
    std::memset(reached, 0xff, kNodes * sizeof(std::uint32_t));
    std::size_t size = 0;
    heap[size++] = flood * 613u % kNodes;
    while (size != 0) {
      std::pop_heap(heap, heap + size, std::greater<>());
      const std::uint64_t event = heap[--size];
      const auto time = static_cast<std::uint32_t>(event >> 32);
      const auto node = static_cast<std::uint32_t>(event);
      if (reached[node] <= time) continue;
      reached[node] = time;
      checksum += event;
      for (std::uint32_t i = 0; i < kDegree; ++i) {
        const std::uint32_t to = adj[std::size_t{node} * kDegree + i];
        const auto at = static_cast<std::uint32_t>(time + 1 + next(rng) % 16);
        if (at < reached[to]) {
          heap[size++] = std::uint64_t{at} << 32 | to;
          std::push_heap(heap, heap + size, std::greater<>());
        }
      }
    }
  }
  munmap(region, bytes);
  return checksum;
}

}  // namespace perfbench
