"""Run independent pieces of numpy work on the CPUs the process may use.

numpy releases the GIL inside ufunc loops and reductions, so threads that
each work on their own slice of an array run at the same time. A kernel
splits its work so that every output element gets the same IEEE
operations in the same order at any worker count; its results are then
bit-identical however many threads run it.
"""

import os

#: Elements of work below which a kernel stays in the calling thread:
#: starting threads and handing work over cost more than they save.
MIN_SPLIT = 2 ** 18


def cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    has one (so ``taskset`` restricts it), else the machine's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def workers(elements: int) -> int:
    """Threads for ``elements`` of splittable work: one below ``MIN_SPLIT``.
    Call it before allocating the work's buffers."""
    count = 1 if elements < MIN_SPLIT else cpus()
    if count > 1:
        # The first import allocates objects that live on. Made while large
        # arrays sit on glibc's heap, they keep it from returning those
        # arrays' pages after the call.
        import concurrent.futures  # noqa: F401
    return count


def run(tasks) -> None:
    """Call every zero-argument task, the first in the calling thread and
    the others on threads of their own; return when all are done and
    raise the first error. Tasks must write to disjoint data, and their
    buffers should be allocated before the call: glibc gives each thread
    its own arena, whose freed pages stay resident after the call."""
    if len(tasks) == 1:
        tasks[0]()
        return
    # imported here, not at startup: importing the package needs no pool
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(len(tasks) - 1) as pool:
        futures = [pool.submit(task) for task in tasks[1:]]
        tasks[0]()
    for future in futures:
        future.result()
