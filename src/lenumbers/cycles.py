"""Le cycles, relative polar cycles, and their intersection numbers.

A cycle is carried as a saturated ideal: multiplicities along components sit
in the non-reduced structure, and unwanted components (inside the critical
locus for polar cycles, origin-supported junk mid-pipeline) are removed by
saturation rather than by any explicit decomposition.

intersection_number counts one slice of a curve at the origin.  The cycle
recursion cuts each polar variety by coordinate hyperplanes, which it
slices by substitution, shrinking the ring, and saturates the cut by the
maximal ideal (_cut); the last hypersurface then cuts a saturated, hence
Cohen-Macaulay, curve, and an improper slice makes the answer None
(undefined) rather than a wrong integer.  The last slice starts from the
grevlex basis of the curve when it carries one (groebner._slice,
groebner._slice_coordinate).  When the final ideal is
zero-dimensional globally, as it usually is, its colength is counted by
local.truncated_quotient_dim: a zero-dimensional quotient splits into one
local algebra per point (Cox, Little, O'Shea, Using Algebraic Geometry,
ch. 4).  A small one takes one local standard basis, and a large one a
saturation by a linear form certified to vanish at no other point.  The
local standard basis (local_quotient_dim) also counts final ideals with
positive-dimensional components, at the origin or elsewhere.

Each relative polar variety Gamma^j = V(dh/dz_j, ..., dh/dz_n) :
(dh/dz_0, ..., dh/dz_{j-1})^infinity of h = apply_frame(f, frame) is
saturated once, in whichever coordinates give the fewer terms (_polar_of).
With B the inverse frame matrix, the chain rule gives dh/dz_i =
apply_frame(L_i, frame) for L_i = sum_k B[k][i] df/dx_k.  apply_frame is a
ring automorphism and saturation commutes with automorphisms, so the
saturation of the L_i, carried through the frame, is Gamma^j.  f is sparse
and h usually dense: the surface z^2+(w^4+x^3+y^2)^2 has 7 terms and, in a
random frame, h has 470.  lambda_numbers walks the cycle recursion
(Massey, Le Cycles and Hypersurface Singularities, LNM 1615) one curve
C_j = Gamma^{j+1} . V(z_0, ..., z_{j-1}) at a time, j = 0..s: each is cut
once and gives C_j . V(dh/dz_j) = lambda^j + gamma^j and C_j . V(z_j) =
gamma^{j+1}.  C_0 = Gamma^1 is counted where it was saturated, on that
saturation and its basis: in f's coordinates z0 is the linear form of
frame row 0 and dh/dz0 is L_0, and apply_frame fixes the origin, so the
local numbers are the same.  polar_mult(f, frame, j) counts Gamma^j on
the same argument: it saturates and counts the pull-back to f's
coordinates and never reframes f.

Each decision about the input is made in one place: why_not_singular says
whether f is singular at the origin, and slice_lam0 gives lambda^0 of the
slice h|V(z0), read off Gamma^1 alone.  A LeRecord carries the reframed h
and the polar ideals Gamma^1..Gamma^{s+1} that its cycle recursion built,
so gamma^1 and mult Gamma^j are read off the record (LeRecord.gamma1,
LeRecord.polar_mult) and no polar variety of it is saturated twice.
mult Gamma^j and the dimension it needs come from one Hilbert series of
the ideal's Lazard basis (local.hs_multiplicity).

generic_le's frame trials share nothing, so each round runs them at once:
the caller computes one, and forked worker processes (_Worker), started on
first use and kept until exit, compute the others and send their records
back whole as pickles.  The records are compared in trial order, so the
answer is the serial loop's to the last polar generator.  checks.check_leiom
hands one worker the record of its first transform while the caller checks
that transform, and uses the record only if the checks pass.  Both go
through one protocol (_beside, _answer): a task no worker answers is
computed in the caller.

generic_le keeps the last record it returned, and only that one, in a
functools.lru_cache(maxsize=1) on _generic_le: the checkers that run on one
germ after it ask for the same record, and an immediately repeated request,
positional or keyword, gets the same read-only object back.
"""

from __future__ import annotations

import atexit
import contextlib
import os
import pickle
import signal
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .groebner import Ideal, _slice, _slice_coordinate, saturate
from .local import (
    hs_multiplicity,
    local_dim,
    local_quotient_dim,
    truncated_quotient_dim,
)
from .poly import Frame, Polynomial, apply_frame


def sigma_ideal(f: Polynomial) -> Ideal:
    """The ideal of all partial derivatives; its zero set is the critical
    locus of f."""
    gens = [f.partial(i) for i in range(len(f.vars))]
    gens = [g for g in gens if not g.is_zero]
    if not gens:
        raise ValueError("constant polynomial has no critical locus ideal")
    return Ideal(gens, vars=f.vars)


@dataclass(frozen=True)
class _Partials:
    """The first partials of h = apply_frame(f, frame), written twice.

    framed[i] is dh/dz_i in the frame's coordinates.  source[i] is
    sum_k B[k][i] * df/dx_k with B = frame.inverse: the same partial
    in f's own coordinates, since apply_frame(source[i], frame) ==
    framed[i] by the chain rule.  polars keeps what _polar_of saturated."""

    frame: Frame
    framed: tuple[Polynomial, ...]
    source: tuple[Polynomial, ...]
    polars: dict = field(default_factory=dict, compare=False)


def _source_partials(f: Polynomial, frame: Frame) -> tuple[Polynomial, ...]:
    """L_i = sum_k B[k][i] * df/dx_k with B = frame.inverse: dh/dz_i of
    h = apply_frame(f, frame), written in f's own coordinates."""
    n1, inv = len(f.vars), frame.inverse
    df = [f.partial(k) for k in range(n1)]
    return tuple(
        sum((df[k] * inv[k][i] for k in range(n1) if inv[k][i]), Polynomial.zero(f.vars))
        for i in range(n1)
    )


def _partials(f: Polynomial, h: Polynomial, frame: Frame) -> _Partials:
    """The partials of h = apply_frame(f, frame) in both coordinates."""
    framed = tuple(h.partial(i) for i in range(len(f.vars)))
    return _Partials(frame, framed, _source_partials(f, frame))


def _own_partials(ps: tuple[Polynomial, ...]) -> _Partials:
    """ps as the partials of a germ in its own coordinates: the identity
    frame, where both sets of partials are ps."""
    return _Partials(Frame.identity(len(ps)), ps, ps)


def _terms(ps: Sequence[Polynomial]) -> int:
    return sum(len(p.terms) for p in ps)


def _polar_of(parts: _Partials, j: int, s: int | None = None) -> tuple[Ideal, Ideal | None]:
    """Polar ideal of the reframed h whose partials parts holds: partials
    j..n, with components inside the critical locus removed.  j = n+1 gives
    the zero ideal (the whole space), which makes the j = n step of the
    cycle recursion uniform.  Returned with the saturation in f's own
    coordinates it was mapped from, None when there is none.

    When the critical dimension s is known, a principal ideal with j > s
    needs no saturation, as a germ at the origin: it has no embedded
    components, and its components have dimension n >= j > s (h has n+1
    variables), so none fits inside the critical locus near the origin.

    Otherwise the saturation runs in whichever coordinates give the fewer
    terms in all, the frame's or f's own.  apply_frame is a ring
    automorphism and saturation commutes with it, so saturating the source
    partials and mapping the generators of the result through the frame
    gives the same ideal as saturating the framed partials.  The mapped
    generators are kept as they are, not recomputed into a basis.  A
    permutation frame ties and stays in the frame's coordinates.  A zero
    dh/dz_j gives Gamma^{j+1} the generators of Gamma^j: each (I, J) is
    saturated once."""
    n1 = len(parts.framed)
    vars = parts.framed[0].vars
    if not 1 <= j <= n1 + 1:
        raise ValueError(f"need 1 <= j <= {n1 + 1}")
    gens = [g for g in parts.framed[j:] if not g.is_zero]
    if not gens:
        return Ideal((), vars=vars), None
    if s is not None and j > s and len(gens) == 1:
        return Ideal(gens, vars=vars), None
    pull = _terms(parts.source) < _terms(parts.framed)
    use = parts.source if pull else parts.framed
    # saturating by the critical ideal only tests the partials below j: the
    # generators above vanish on every component of their own zero set
    I, J = Ideal(use[j:], vars=vars), Ideal(use[:j], vars=vars)
    if (I.gens, J.gens) not in parts.polars:
        P = saturate(I, J)
        Q = Ideal([apply_frame(g, parts.frame) for g in P.gens], vars=vars) if pull else P
        parts.polars[I.gens, J.gens] = (Q, P if pull else None)
    return parts.polars[I.gens, J.gens]


def _max_ideal(vars: tuple[str, ...]) -> Ideal:
    return Ideal([Polynomial.var_index(i, vars) for i in range(len(vars))], vars=vars)


def _coordinate_index(p: Polynomial) -> int | None:
    """Index i when p is a nonzero multiple of the variable z_i."""
    if len(p.terms) != 1:
        return None
    (e,) = p.terms
    if sum(e) != 1:
        return None
    return e.index(1)


def _cut(I: Ideal, j: int) -> Ideal:
    """I . V(z_0, ..., z_{j-1}) saturated by the maximal ideal: z_0..z_{j-1}
    set to 0 and dropped from the ring, so z_j is its first variable."""
    gens = I.gens
    for _ in range(j):
        gens = [g.set_var_zero(0) for g in gens]
    vars = I.vars[j:]
    return saturate(Ideal(gens, vars=vars), _max_ideal(vars))


def intersection_number(C: Ideal, form: Polynomial) -> int | None:
    """Local intersection number at the origin of the curve of C with the
    hypersurface V(form).

    C must carry no origin-supported junk and every component of V(C) must
    have dimension >= 1; both hold for the curves the cycle recursion
    builds: Gamma^1 comes back saturated, and each later cut is saturated
    by the maximal ideal (_cut).  A finite colength then certifies the
    slice: the components of C through the origin are exactly
    one-dimensional and form cuts them properly.  A curve of dimension >= 2
    at the origin gives an infinite colength, hence None.  The count is
    exact because a saturated curve is Cohen-Macaulay and a form that cuts
    it properly is a nonzerodivisor.  A zero form gives None and one that
    misses the origin gives 0.

    The colength of the sliced ideal K is counted by truncated_quotient_dim
    when K is zero-dimensional: k[x]/K is the product of its local
    algebras, one per point (Cox-Little-O'Shea, ch. 4).  When K has
    positive-dimensional components the count falls back to the local
    standard basis (local_quotient_dim), which alone can tell a
    positive-dimensional germ at the origin from one elsewhere."""
    if form.is_zero:
        return None
    if form.constant_term != 0:
        # the hypersurface misses the origin; nothing to count there
        return 0
    i = _coordinate_index(form)
    K = _slice_coordinate(C, i) if i is not None and len(C.vars) > 1 else _slice(C, form)
    q = truncated_quotient_dim(K)
    return local_quotient_dim(K) if q is None else q


@dataclass(frozen=True)
class LeRecord:
    """Le numbers lambda^0..lambda^s and relative polar numbers
    gamma^1..gamma^s at the origin, None marking an improper (undefined)
    intersection.  gamma^0 is identically zero and not stored.

    The record also keeps what the numbers were computed from: h, the input
    rewritten in the frame (apply_frame(f, frame)), and polar, the relative
    polar ideals of h that the cycle recursion built, polar[j-1] being
    Gamma^j for j = 1..s+1.  Neither shows in repr or takes part in
    equality.  Each stored Gamma^j is, as a germ at the origin, the
    partials j..n of h saturated by those below j, so gamma1 and polar_mult
    read it as it is: for j <= s it is that saturation, and a principal
    Gamma^j with j > s is kept unsaturated, the same germ at 0 (_polar_of).
    polar_mult reads the dimension and the multiplicity of Gamma^j off one
    Hilbert series (local.hs_multiplicity).  Only lambda_numbers builds
    records; the frame carries the seed it was drawn from."""

    s: int
    lam: tuple
    gam: tuple
    frame: Frame
    h: Polynomial = field(repr=False, compare=False)
    polar: tuple = field(repr=False, compare=False)

    @property
    def fully_defined(self) -> bool:
        # lambda^j is set only where gamma^j is defined
        return None not in self.lam

    def lex_key(self) -> tuple:
        """(lambda^s, ..., lambda^0, gamma^s, ..., gamma^1); generic frames
        minimize this.  The gamma tail breaks ties between frames with the
        same Le numbers: a hyperplane tangent to a polar variety inflates
        gamma^j above mult Gamma^j without necessarily disturbing lambda."""
        if not self.fully_defined:
            raise ValueError("record has undefined entries")
        return tuple(reversed(self.lam)) + tuple(reversed(self.gam))

    def gamma1(self) -> int | None:
        """gamma^1 = Gamma^1 . V(z0): stored when s >= 1; a record with
        s = 0 does not store it, so it is counted from its Gamma^1."""
        if self.s >= 1:
            return self.gam[0]
        return intersection_number(self.polar[0], Polynomial.var_index(0, self.h.vars))

    def polar_mult(self, j: int) -> int | None:
        """mult Gamma^j at the origin for 1 <= j <= s+1, read off the stored
        ideal; 0 when Gamma^j misses the origin, None (undefined) when it is
        not j-dimensional there."""
        return hs_multiplicity(self.polar[j - 1], j)


def why_not_singular(f: Polynomial) -> str | None:
    """Why f is not singular at the origin, or None when it is: f is nonzero,
    f(0) = 0 and every first partial vanishes at the origin."""
    if f.is_zero:
        return "f must be nonzero"
    if f.constant_term != 0:
        return "f(0) != 0"
    if any(f.partial(i).constant_term != 0 for i in range(len(f.vars))):
        return "the origin is not a critical point of f"
    return None


def _validate_singular(f: Polynomial) -> None:
    why = why_not_singular(f)
    if why is not None:
        raise ValueError(why)


def lambda_numbers(
    f: Polynomial, frame: Frame | None = None, *, s: int | None = None
) -> LeRecord:
    """Le and relative polar numbers of f at the origin for one frame.

    Walks the cycle recursion one curve C_j = Gamma^{j+1} . V(z_0, ...,
    z_{j-1}) at a time, Gamma^1 being C_0: each is cut once and gives
    lambda^j + gamma^j = C_j . V(dh/dz_j) and, for j < s, gamma^{j+1} =
    C_j . V(z_j).  Improper intersections and negative differences leave
    the affected entries None.  s, the dimension of the critical locus at
    the origin, is computed unless the caller already holds it: it does
    not depend on the frame.  slice_check cross-checks the record.
    """
    _validate_singular(f)
    n1 = len(f.vars)
    if frame is None:
        frame = Frame.identity(n1)
    h = apply_frame(f, frame)
    if s is None:
        # the original coordinates keep the generators sparse
        s = local_dim(sigma_ideal(f))
    parts = _partials(f, h, frame)
    # polar[j-1] is Gamma^j
    polar, pulled = zip(*(_polar_of(parts, j, s) for j in range(1, s + 2)))
    lam: list = [None] * (s + 1)
    gam: list = [0] + [None] * s  # gam[j] is gamma^j
    for j in range(s + 1):
        if j == 0 and pulled[0] is not None:
            # Gamma^1 is cut where it was saturated: in f's own coordinates
            # z0 is the form of frame row 0 and dh/dz0 is source[0]
            row = {tuple(int(k == i) for k in range(n1)): c for i, c in enumerate(frame.matrix[0])}
            C, z, dz = pulled[0], Polynomial(f.vars, row), parts.source[0]
        else:
            dz = parts.framed[j]
            for _ in range(j):
                dz = dz.set_var_zero(0)  # on V(z_0, ..., z_{j-1})
            if j == s and dz.is_zero:
                break  # lambda^s is undefined, and C_s counts nothing else
            C = _cut(polar[j], j) if j else polar[0]
            z = Polynomial.var_index(0, C.vars)  # z_j
        total = intersection_number(C, dz)
        if j < s:
            gam[j + 1] = intersection_number(C, z)
        if total is not None and gam[j] is not None:
            diff = total - gam[j]
            lam[j] = diff if diff >= 0 else None
    return LeRecord(
        s=s, lam=tuple(lam), gam=tuple(gam[1:]), frame=frame, h=h, polar=polar
    )


class _Worker:
    """A forked process that runs lambda_numbers for its parent.  Each task
    and each reply is one pickle on the worker's own pipe pair.  The parent
    keeps at most one task outstanding and reads its reply before sending
    the next, so a write that fills a pipe always has a reader coming."""

    __slots__ = ("pid", "tasks", "replies")

    def __init__(self):
        fds: list[int] = []
        parent = os.getpid()
        try:
            fds += os.pipe()
            fds += os.pipe()
            pid = os.fork()
        except OSError:
            for fd in fds:
                os.close(fd)
            raise
        task_r, task_w, reply_r, reply_w = fds
        if pid == 0:
            try:
                _die_with(parent)
                os.close(task_w)
                os.close(reply_r)
                _serve(os.fdopen(task_r, "rb"), os.fdopen(reply_w, "wb"))
            finally:
                os._exit(0)
        os.close(task_r)
        os.close(reply_w)
        self.pid = pid
        self.tasks = os.fdopen(task_w, "wb")
        self.replies = os.fdopen(reply_r, "rb")

    def send(self, task) -> bool:
        """False when the worker is gone (its end of the pipe is closed)."""
        try:
            pickle.dump(task, self.tasks, pickle.HIGHEST_PROTOCOL)
            self.tasks.flush()
            return True
        except OSError:
            return False

    def receive(self):
        """The LeRecord or the exception the task gave; None when the worker
        died or could not pickle its answer.  Any reply that cannot be read
        is None too: the caller then computes the trial itself, which gives
        the serial answer whatever went wrong."""
        try:
            return pickle.load(self.replies)
        except Exception:
            return None


# prctl option (linux/prctl.h): the signal to get when the parent thread exits
_PR_SET_PDEATHSIG = 1


def _die_with(parent: int) -> None:
    """In a new worker: have the kernel SIGKILL it when the thread that
    forked it exits, even when that caller dies without running its exit
    hooks, and exit at once if the caller died before the request.  Skipped
    where prctl is missing.  A caller that forks from a short-lived thread
    loses its workers with that thread; _answer then computes their tasks
    itself."""
    import ctypes  # here, so the caller neither imports nor maps it

    try:
        ctypes.CDLL(None).prctl(_PR_SET_PDEATHSIG, int(signal.SIGKILL))
    except (AttributeError, OSError):
        return
    if os.getppid() != parent:
        os._exit(0)


# the workers of this process; started on first use, kept until exit
_POOL: list[_Worker] = []


def _serve(tasks, replies) -> None:
    """A worker's loop: answer (f, frame, s) with lambda_numbers(f, frame,
    s=s), or with the exception it raised, until the parent closes the
    task pipe."""
    # the parent's ends of the pipes of its earlier workers
    for w in _POOL:
        w.tasks.close()
        w.replies.close()
    _POOL.clear()
    while True:
        try:
            f, frame, s = pickle.load(tasks)
        except EOFError:
            return
        try:
            data = pickle.dumps(_attempt(f, frame, s), pickle.HIGHEST_PROTOCOL)
        except Exception:
            data = pickle.dumps(None)
        replies.write(data)
        replies.flush()


def _pool_size(trials: int) -> int:
    """Workers for a round of trials: min(trials - 1, usable CPUs), and 0
    without os.fork or with one usable CPU."""
    if not hasattr(os, "fork"):
        return 0
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return min(trials - 1, cpus) if cpus >= 2 else 0


def _workers(k: int) -> list[_Worker]:
    """Up to k workers of the pool, forking the missing ones; fewer when
    the system has no process or descriptor to spare."""
    while len(_POOL) < k:
        # one exit hook, however often the pool is dropped and refilled
        atexit.unregister(_drop_pool)
        atexit.register(_drop_pool)
        try:
            _POOL.append(_Worker())
        except OSError:
            break
    return _POOL[:k]


def _drop_pool() -> None:
    """Close the pipes of every worker, stop it and reap it."""
    while _POOL:
        w = _POOL.pop()
        for pipe in (w.tasks, w.replies):
            with contextlib.suppress(OSError):
                pipe.close()
        with contextlib.suppress(OSError):
            os.kill(w.pid, signal.SIGKILL)
            os.waitpid(w.pid, 0)


def _attempt(f: Polynomial, frame: Frame, s: int):
    """lambda_numbers(f, frame, s=s), or the exception it raised."""
    try:
        return lambda_numbers(f, frame, s=s)
    except Exception as exc:
        return exc


def _beside(tasks: Sequence[tuple], local):
    """Run local() in the caller while workers compute _attempt(*task) for
    each (f, frame, s) of tasks.

    Returns local()'s result and one reply per task: the LeRecord or the
    exception of its worker, or None when no worker computed it, because
    none could be forked or it died or could not send its answer; _answer
    then computes it in the caller.  Every reply is read before this
    returns, used or not, so the next task a worker gets is answered by
    its own reply.  A worker that failed drops the pool, and so does
    local() raising, since a task may still be outstanding: the next call
    forks fresh workers."""
    workers = _workers(min(len(tasks), _pool_size(len(tasks) + 1)))
    try:
        sent = [w.send(task) for w, task in zip(workers, tasks)]
        mine = local()
        replies = [w.receive() if ok else None for w, ok in zip(workers, sent)]
    except BaseException:
        _drop_pool()
        raise
    if None in replies:
        _drop_pool()
    return mine, replies + [None] * (len(tasks) - len(replies))


def _answer(task: tuple, reply):
    """The LeRecord or exception of _attempt(*task): reply, or computed in
    the caller when no worker answered."""
    return _attempt(*task) if reply is None else reply


def _lambda_trials(f: Polynomial, frames: Sequence[Frame], s: int) -> list[LeRecord]:
    """lambda_numbers(f, frame, s=s) for each frame, in frame order.

    The frames go in batches of one per worker plus one: the workers take
    the first ones and the caller computes the last (_beside), then any
    that no worker answered.  Whatever raised first in frame order is
    raised, as a serial loop would raise it.  With no workers the caller
    computes every frame."""
    k = _pool_size(len(frames)) + 1
    out: list[LeRecord] = []
    for lo in range(0, len(frames), k):
        *tasks, last = [(f, frame, s) for frame in frames[lo : lo + k]]
        mine, replies = _beside(tasks, lambda: _attempt(*last))
        for task, reply in zip([*tasks, last], [*replies, mine]):
            r = _answer(task, reply)
            if isinstance(r, Exception):
                raise r
            out.append(r)
    return out


class Undefined(RuntimeError):
    """The quantity asked for is mathematically undefined for this input:
    generic_le found no frame with defined Le numbers."""


def generic_le(
    f: Polynomial, seed: int = 0, trials: int = 3, bound: int = 10
) -> LeRecord:
    """Generic Le numbers: lexicographic minimum (lambda^s first, relative
    polar numbers as tie-break) over random frames, the coefficient bound
    doubling when every frame in a round comes out undefined; Undefined
    after five such rounds.

    The frames of a round are computed at once, in up to min(trials - 1,
    usable CPUs) forked worker processes and the caller (_lambda_trials),
    and compared in trial order, so ties keep the earliest frame and the
    record is the one a serial loop returns, h and polar included.

    Exactly one record is kept, by functools.lru_cache(maxsize=1) on
    _generic_le, which takes the arguments positionally whichever way they
    were given: a request equal to the one just answered, f (variables
    included), seed, trials and bound alike, returns that same record
    object, read-only, and computes nothing.  Any other returned record
    replaces it; Undefined is not cached and leaves it as it was.  The
    arguments are validated before the cache is asked."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    _validate_singular(f)
    return _generic_le(f, seed, trials, bound)


@lru_cache(maxsize=1)
def _generic_le(f: Polynomial, seed: int, trials: int, bound: int) -> LeRecord:
    n1 = len(f.vars)
    s = local_dim(sigma_ideal(f))
    best = None
    b = bound
    for round_ in range(5):
        frames = [
            Frame.random(n1, seed * 1000003 + round_ * trials + t, b)
            for t in range(trials)
        ]
        for rec in _lambda_trials(f, frames, s):
            if rec.fully_defined and (best is None or rec.lex_key() < best.lex_key()):
                best = rec
        if best is not None:
            return best
        b *= 2
    raise Undefined(
        "no frame gave defined Le numbers; raise the coefficient bound or trials"
    )


def slice_lam0(h: Polynomial) -> int | None:
    """lambda^0 of h0 = h restricted to the hyperplane V(z0), in the
    identity frame of the slice (_own_partials, as polar_mult):
    Gamma^1 . V(dh0/dz0), Gamma^1 saturated (the germ at 0
    lambda_numbers(h0) counts).  None unless h0 is
    singular at the origin, and when the intersection is undefined."""
    h0 = h.set_var_zero(0)
    if why_not_singular(h0) is not None:
        return None
    parts = _own_partials(tuple(h0.partial(i) for i in range(len(h0.vars))))
    return intersection_number(_polar_of(parts, 1)[0], parts.framed[0])


def slice_check(f: Polynomial, frame: Frame, rec: LeRecord) -> bool | None:
    """Cross-check lambda^0 of f|V(z0) against gamma^1 + lambda^1, read off
    rec, the Le record of f in frame.

    The two sides agree for frames generic enough that both are defined;
    None when either side is undefined (nothing to compare).  A record
    computed in another frame is a ValueError."""
    if rec.frame.matrix != frame.matrix:
        raise ValueError("the Le record was computed in another frame")
    if len(f.vars) == 1:
        return None
    g1 = rec.gamma1()
    l1 = rec.lam[1] if rec.s >= 1 else 0
    if g1 is None or l1 is None:
        return None
    lam0 = slice_lam0(rec.h)
    if lam0 is None:
        return None
    return lam0 == g1 + l1


def polar_mult(f: Polynomial, frame: Frame, j: int) -> int | None:
    """Multiplicity at the origin of the polar cycle Gamma^j of
    apply_frame(f, frame); 0 when it misses the origin, None when it is not
    j-dimensional there.

    Gamma^j is saturated and counted where it is pulled back to f's own
    coordinates, from the source partials L_i (_source_partials): the
    frame is a linear automorphism fixing the origin, so the dimension and
    the Hilbert-Samuel multiplicity at 0 are the same on both sides."""
    return hs_multiplicity(_polar_of(_own_partials(_source_partials(f, frame)), j)[0], j)
