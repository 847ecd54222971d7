#!/usr/bin/env python3
"""Sampling profiler for a sandbox without `perf`: ptrace + /proc, x86-64 Linux.

    scripts/sample.py PID [--hz 300] [--seconds 14] [--top 25] [--callers SYM]
                          [--group NAME=SUB[,SUB...]]...

Seizes every thread of PID, and N times a second interrupts each, reads its
registers, and lets it run on. RIP is resolved against `nm -C -n` of the
executable and `nm -D -C -n` of each mapped library. When the binary was built
with RUSTFLAGS="-C force-frame-pointers=yes" the rbp chain is walked through
/proc/PID/mem too, which gives the inclusive table and `--callers`; without
frame pointers only the flat table means anything. A sample in a library also
takes as callers the return addresses among the stack words from [rsp] up to
rbp's frame (at most 64 words): code addresses that follow a call instruction.
A frameless leaf such as glibc's memcpy leaves rbp at its caller's frame, and
glibc's allocator internals use rbp as a plain register, so the chain alone
would skip the caller or lose the whole stack. Libraries resolve through their exported symbols (`nm
-D`); an address whose function (its `.eh_frame` entry, from `readelf`) starts
past the nearest export prints as `lib.so+0xSTART (export)` rather than under
the export's name. `--group NAME=SUB,...` (repeatable) prints, in one line, the
share of samples whose frame chain (those stack callers included) names any SUB:
a whole subsystem such as the allocator, whatever its internals resolve to.
Python 3 stdlib, `nm` and `readelf`.
"""
import argparse, bisect, collections, ctypes, os, struct, subprocess, sys, time

SEIZE, INTERRUPT, GETREGS, CONT, DETACH = 0x4206, 0x4207, 12, 7, 17
WALL = 0x40000000  # __WALL: wait for threads that are not our children
RBP, RIP, RSP = 4, 16, 19  # indexes into user_regs_struct (27 unsigned longs)
libc = ctypes.CDLL(None, use_errno=True)
libc.ptrace.argtypes = [ctypes.c_long, ctypes.c_long, ctypes.c_void_p, ctypes.c_void_p]
libc.ptrace.restype = ctypes.c_long


def ptrace(req, tid, data=None):
    if libc.ptrace(req, tid, None, data) < 0:
        raise OSError(ctypes.get_errno(), f"ptrace({req:#x}, {tid})")


def nm(path, dynamic):
    """Sorted [(address, name)] of the text symbols of `path`."""
    cmd = ["nm", "-C", "-n"] + (["-D"] if dynamic else []) + [path]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    syms = []
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in "tTwW" and parts[0]:
            syms.append((int(parts[0], 16), parts[2]))
    return syms


def functions(path):
    """Sorted [(start, end)] of the functions `.eh_frame` of `path` describes."""
    cmd = ["readelf", "--debug-dump=frames", path]
    out = subprocess.run(cmd, capture_output=True, text=True).stdout
    spans = []
    for line in out.splitlines():
        if " FDE " in line and " pc=" in line:
            lo, hi = line.split(" pc=")[1].split()[0].split("..")
            spans.append((int(lo, 16), int(hi, 16)))
    return sorted(spans)


class Images:
    """The executable mappings of a process and a symbol table for each."""

    def __init__(self, pid):
        self.maps, self.tables, self.funcs, base = [], {}, {}, {}
        self.exe = exe = os.path.realpath(f"/proc/{pid}/exe")
        for line in open(f"/proc/{pid}/maps"):
            f = line.split()
            if len(f) < 6 or not f[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in f[0].split("-"))
            base.setdefault(f[5], lo - int(f[2], 16))  # first mapping: load base
            if "x" in f[1]:
                self.maps.append((lo, hi, f[5], base[f[5]]))
                if f[5] not in self.tables:
                    syms = nm(f[5], dynamic=f[5] != exe)
                    self.tables[f[5]] = ([a for a, _ in syms], [n for _, n in syms])
                    spans = functions(f[5]) if f[5] != exe else []
                    self.funcs[f[5]] = ([a for a, _ in spans], [b for _, b in spans])
        self.maps.sort()

    def mapping(self, addr):
        for lo, hi, path, base in self.maps:
            if lo <= addr < hi:
                return path, base
        return None, 0

    def resolve(self, addr):
        path, base = self.mapping(addr)
        if path is None:
            return "[unmapped]"
        off, lib = addr - base, os.path.basename(path)
        addrs, names = self.tables[path]
        i = bisect.bisect_right(addrs, off) - 1
        starts, ends = self.funcs[path]
        j = bisect.bisect_right(starts, off) - 1
        if j >= 0 and off < ends[j] and (i < 0 or addrs[i] < starts[j]):
            # The nearest export lies before the function `addr` is in.
            return f"{lib}+{starts[j]:#x} ({names[i] if i >= 0 else '-'})"
        return names[i] if i >= 0 else f"[{lib}]"


def stack(mem, regs, depth=48):
    """Return addresses up the rbp chain; stops at the first implausible frame."""
    out, rbp = [], regs[RBP]
    while len(out) < depth and rbp and rbp % 8 == 0:
        try:
            nxt, ret = struct.unpack("QQ", os.pread(mem, 16, rbp))
        except (OSError, struct.error, OverflowError):
            break
        if nxt <= rbp or ret < 0x1000:
            break
        out.append(ret)
        rbp = nxt
    return out


def after_call(mem, ret):
    """Whether the code before `ret` ends in a call: `call rel32` (E8), or
    `call r/m64` (FF /2, two to seven bytes with displacement and SIB)."""
    try:
        b = os.pread(mem, 7, ret - 7)
    except (OSError, OverflowError, ValueError):
        return False
    if len(b) < 7:
        return False
    return b[2] == 0xE8 or any(
        b[7 - n] == 0xFF and (b[8 - n] >> 3) & 7 == 2 for n in (2, 3, 4, 6, 7)
    )


def stack_callers(mem, images, regs, words=64):
    """Return addresses among the stack words from rsp up to rbp's frame."""
    rsp, rbp = regs[RSP], regs[RBP]
    end = rbp if rsp < rbp <= rsp + 8 * words else rsp + 8 * words
    try:
        raw = os.pread(mem, end - rsp, rsp)
    except (OSError, OverflowError, ValueError):
        return []
    found = struct.unpack(f"{len(raw) // 8}Q", raw[: len(raw) // 8 * 8])
    return [w for w in found if images.mapping(w)[0] and after_call(mem, w)]


def table(title, counts, total, top):
    print(f"\n{title} ({total} samples)")
    for name, n in counts.most_common(top):
        print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("pid", type=int)
    ap.add_argument("--hz", type=float, default=300.0)
    ap.add_argument("--seconds", type=float, default=14.0)
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", metavar="SYM", help="substring of a symbol: who calls it")
    ap.add_argument("--group", metavar="NAME=SUB[,SUB...]", action="append", default=[],
                    help="share of samples whose frame chain names any SUB (repeatable)")
    a = ap.parse_args()
    groups = []
    for g in a.group:
        name, _, subs = g.partition("=")
        subs = [s for s in subs.split(",") if s]
        if not name or not subs:
            ap.error(f"--group {g!r}: expected NAME=SUB[,SUB...]")
        groups.append((name, subs))

    images = Images(a.pid)
    mem = os.open(f"/proc/{a.pid}/mem", os.O_RDONLY)
    seized = set()
    flat, incl, callers, grouped = (collections.Counter() for _ in range(4))
    regs = (ctypes.c_ulong * 27)()
    total, end, tick = 0, time.monotonic() + a.seconds, 1.0 / a.hz
    try:
        while time.monotonic() < end and os.path.exists(f"/proc/{a.pid}"):
            began = time.monotonic()
            for tid in map(int, os.listdir(f"/proc/{a.pid}/task")):
                try:
                    if tid not in seized:
                        ptrace(SEIZE, tid)
                        seized.add(tid)
                    ptrace(INTERRUPT, tid)
                    os.waitpid(tid, WALL)
                    ptrace(GETREGS, tid, ctypes.byref(regs))
                    frames = [regs[RIP]] + stack(mem, regs)
                    path, _ = images.mapping(regs[RIP])
                    if path not in (None, images.exe):
                        frames[1:1] = stack_callers(mem, images, regs)
                    ptrace(CONT, tid)
                except (OSError, ChildProcessError):
                    seized.discard(tid)  # the thread exited under us
                    continue
                names = [images.resolve(x) for x in frames]
                total += 1
                flat[names[0]] += 1
                incl.update(set(names))
                for name, subs in groups:
                    if any(s in n for n in names for s in subs):
                        grouped[name] += 1
                if a.callers:
                    for callee, caller in zip(names, names[1:]):
                        if a.callers in callee and a.callers not in caller:
                            callers[caller] += 1
            time.sleep(max(0.0, tick - (time.monotonic() - began)))
    finally:
        for tid in seized:
            try:
                ptrace(INTERRUPT, tid)
                os.waitpid(tid, WALL)
                ptrace(DETACH, tid)
            except (OSError, ChildProcessError):
                pass
    if not total:
        sys.exit("no samples: is the pid alive and ptrace permitted?")
    table("flat (self)", flat, total, a.top)
    table("inclusive (anywhere on the rbp chain)", incl, total, a.top)
    if a.callers:
        table(f"callers of *{a.callers}*", callers, sum(callers.values()) or 1, a.top)
    if groups:
        print(f"\ngroups: any frame on the chain ({total} samples)")
        for name, subs in groups:
            n = grouped[name]
            print(f"{100.0 * n / total:6.2f}%  {n:7d}  {name} = {','.join(subs)}")


if __name__ == "__main__":
    main()
