"""Per-module tracing of dl-lab, installed from outside the library.

Run as a script, it runs one `dl-lab` invocation in the current process, in
one of two modes, and writes what it measured to a JSON file:

    PYTHONPATH=src python3 perfbench/tracer.py count STATS.json verify --suite thm31
    PYTHONPATH=src python3 perfbench/tracer.py sample STATS.json verify --suite thm31

`count` wraps every public function and method of the modules in MODULES, and
replaces every binding of a wrapped function in any `dllab` module by the
wrapper, because the modules import each other by name (`cli.in_Xh` and
`matmodel.in_Xh` are separate bindings).  A call counts only when it enters a
module from outside it; a call from inside the same module passes straight
through.  For a generator function each resume is a call.  The wrappers read
no clock, except around the few table builds of `ffield`.

`sample` changes no code, so the times it gives are those of the program, not
of the wrappers.  An interval timer interrupts the program about every
SAMPLE_S of CPU time (the kernel may deliver fewer: about 250 a second with
a 250 Hz tick).  Each interrupt charges the wall time since the previous one
to the module of the innermost `dllab` frame on the stack, and to every
function of INCLUSIVE on the stack.  So the module self times and the time
outside the modules add up to the elapsed time exactly; each share is an
estimate whose error shrinks with the number of samples.
"""

from __future__ import annotations

import functools
import inspect
import json
import signal
import sys
import time

MODULES = (
    "ffield",
    "cyclo",
    "twistring",
    "charlib",
    "repkit",
    "matmodel",
    "counting",
    "serieslab",
    "constructions",
    "cli",
)

PACKAGE = "dllab"
SAMPLE_S = 0.001

# Class attributes that are machinery, not part of a module's interface.
_SKIP = {
    "__new__",
    "__setattr__",
    "__delattr__",
    "__getattr__",
    "__getattribute__",
    "__init_subclass__",
    "__class_getitem__",
}

# Inclusive times reported on their own: (module, qualified name) -> metric.
INCLUSIVE = {
    ("repkit", "GroupModel.conj_classes"): "repkit.conj_classes_s",
    ("repkit", "induce_char"): "repkit.induce_char_s",
    ("counting", "exp_sum"): "counting.exp_sum_s",
}


# -- sampled times -------------------------------------------------------------


class Sampler:
    """Self time per module and inclusive time per function, from samples.

    `modules` maps a module's `__name__` to the name it is reported under;
    `inclusive` maps a code object to the metric that gets the time while it
    is on the stack.  Time outside every module is charged to None.
    """

    def __init__(self, modules, inclusive):
        self.modules = modules
        self.inclusive = inclusive
        self.self_s = dict.fromkeys([*modules.values(), None], 0.0)
        self.inclusive_s = dict.fromkeys(inclusive.values(), 0.0)
        self.samples = 0
        self.started = self.last = 0.0

    def _sample(self, signum, frame):
        now = time.perf_counter()
        dt, self.last = now - self.last, now
        self.samples += 1
        layer, metrics = None, set()
        while frame is not None:
            if layer is None:
                layer = self.modules.get(frame.f_globals.get("__name__"))
            metric = self.inclusive.get(frame.f_code)
            if metric:
                metrics.add(metric)
            frame = frame.f_back
        self.self_s[layer] += dt
        for metric in metrics:
            self.inclusive_s[metric] += dt

    def start(self):
        self.started = self.last = time.perf_counter()
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_S, SAMPLE_S)

    def stop(self):
        """Stop sampling; the time since the last sample goes to None."""
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        now = time.perf_counter()
        self.self_s[None] += now - self.last
        self.last = now


# -- call counts ---------------------------------------------------------------


class Tracer:
    """Call counts per function and a few counters, kept in memory.

    `cur` holds the module running now; None stands for code outside the
    traced modules.
    """

    def __init__(self):
        self.calls = {}  # (module, name) -> [calls from outside the module]
        self.cur = [None]
        self.group_mul_calls = [0]
        self.xh = [0, 0]  # in_Xh calls, in_Xh calls returning true
        self.build_s = [0.0]

    def span(self, module, name, fn):
        """Wrap fn so that calls from outside `module` are counted."""
        rec = self.calls.setdefault((module, name), [0])
        cur = self.cur

        def wrapper(*args, **kwargs):
            caller = cur[0]
            if caller is module:
                return fn(*args, **kwargs)
            rec[0] += 1
            cur[0] = module
            try:
                return fn(*args, **kwargs)
            finally:
                cur[0] = caller

        return wrapper

    def generator(self, module, name, fn):
        """Wrap a generator function: each resume from outside is a call."""
        step = self.span(module, name, next)

        def resume_each(gen):
            while True:
                try:
                    value = step(gen)
                except StopIteration:
                    return
                yield value

        def wrapper(*args, **kwargs):
            return resume_each(fn(*args, **kwargs))

        return wrapper

    def built(self, fn):
        """Add the time of every call of fn to build_s."""
        build = self.build_s

        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                build[0] += time.perf_counter() - t0

        return wrapper

    def built_once(self, fn):
        """Add the time of the first call of fn(obj, arg) per (obj, arg) to build_s."""
        seen, first = set(), self.built(fn)

        def wrapper(obj, arg):
            key = (id(obj), arg)
            if key in seen:
                return fn(obj, arg)
            seen.add(key)
            return first(obj, arg)

        return wrapper

    def counted_true(self, fn):
        """Count calls of a predicate and how many return true."""
        xh = self.xh

        def wrapper(*args, **kwargs):
            out = fn(*args, **kwargs)
            xh[0] += 1
            if out:
                xh[1] += 1
            return out

        return wrapper

    def counted_mul(self, fn):
        """Count calls of a group multiplication closure."""
        n = self.group_mul_calls

        def wrapper(x, y):
            n[0] += 1
            return fn(x, y)

        return wrapper

    def module_calls(self):
        """{module: calls from outside it}."""
        out = {}
        for (module, _), (calls,) in self.calls.items():
            out[module] = out.get(module, 0) + calls
        return out


# -- installation into dllab ---------------------------------------------------


def _import_modules():
    import importlib

    return {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}


def _members(mod):
    """(owner, attribute, object, qualified name) for each public callable."""
    for name, obj in list(vars(mod).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if inspect.isclass(obj):
            for attr, member in list(vars(obj).items()):
                private = attr.startswith("_") and not attr.endswith("__")
                if private or attr in _SKIP:
                    continue
                if inspect.isfunction(member) or isinstance(
                    member, (staticmethod, classmethod, property)
                ):
                    yield obj, attr, member, f"{name}.{attr}"
        elif callable(obj):
            yield mod, name, obj, name


def _wrap_function(tracer, module, qualname, fn):
    if inspect.isgeneratorfunction(fn):
        wrapper = tracer.generator(module, qualname, fn)
    else:
        wrapper = tracer.span(module, qualname, fn)
    return functools.wraps(fn)(wrapper)


def install(tracer):
    """Wrap the public callables of the traced modules and rebind them.

    Returns the original module-level functions by "module.name", so callers
    can read attributes such as `cache_info` from the unwrapped objects.
    """
    mods = _import_modules()
    ffield, repkit, matmodel = mods["ffield"], mods["repkit"], mods["matmodel"]

    # Counters that sit under the span wrappers, so they see every call.
    Field = ffield.Field
    Field.__init__ = tracer.built(Field.__init__)
    Field.frob_table = tracer.built_once(Field.frob_table)
    Field.embed_table = tracer.built_once(Field.embed_table)
    group_init = repkit.GroupModel.__init__

    def init_counting_mul(self, *args, **kwargs):
        group_init(self, *args, **kwargs)
        self.mul = tracer.counted_mul(self.mul)

    repkit.GroupModel.__init__ = init_counting_mul
    in_xh = matmodel.in_Xh
    matmodel.in_Xh = functools.wraps(in_xh)(tracer.counted_true(in_xh))

    rebind = {}  # id(original) -> (original, wrapper)
    originals = {}
    for module, mod in mods.items():
        for owner, attr, member, qualname in _members(mod):
            if isinstance(member, property):
                fget = member.fget and _wrap_function(tracer, module, qualname, member.fget)
                setattr(owner, attr, property(fget, member.fset, member.fdel, member.__doc__))
            elif isinstance(member, (staticmethod, classmethod)):
                fn = _wrap_function(tracer, module, qualname, member.__func__)
                setattr(owner, attr, type(member)(fn))
            else:
                wrapper = _wrap_function(tracer, module, qualname, member)
                setattr(owner, attr, wrapper)
                if owner is mod:
                    rebind[id(member)] = (member, wrapper)
                    originals[f"{module}.{qualname}"] = member
    rebind[id(in_xh)] = (in_xh, matmodel.in_Xh)
    for name, mod in list(sys.modules.items()):
        if name != PACKAGE and not name.startswith(PACKAGE + "."):
            continue
        for attr, value in list(vars(mod).items()):
            hit = rebind.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])
    return originals


def sampler():
    """A Sampler for the traced modules and the INCLUSIVE functions."""
    mods = _import_modules()
    codes = {}
    for (module, qualname), metric in INCLUSIVE.items():
        obj = mods[module]
        for part in qualname.split("."):
            obj = getattr(obj, part)
        codes[inspect.unwrap(obj).__code__] = metric
    return Sampler({f"{PACKAGE}.{m}": m for m in MODULES}, codes)


# -- entry point ---------------------------------------------------------------


def count_main(argv, stats):
    """Count the calls of one `dl-lab` invocation into `stats`."""
    tracer = Tracer()
    originals = install(tracer)
    import dllab.cli

    try:
        return dllab.cli.main(argv)
    finally:
        calls = tracer.module_calls()
        stats.update(
            calls={m: calls.get(m, 0) for m in MODULES},
            field_builds=originals["ffield.field"].cache_info().misses,
            build_s=tracer.build_s[0],
            in_xh_calls=tracer.xh[0],
            in_xh_true=tracer.xh[1],
            group_mul_calls=tracer.group_mul_calls[0],
        )


def sample_main(argv, stats):
    """Sample the times of one `dl-lab` invocation into `stats`."""
    s = sampler()
    import dllab.cli

    s.start()
    try:
        return dllab.cli.main(argv)
    finally:
        s.stop()
        stats.update(
            self_s={m: s.self_s[m] for m in MODULES},
            outside_s=s.self_s[None],
            inclusive_s=s.inclusive_s,
            samples=s.samples,
        )


def main(mode, stats_path, argv):
    """Run one invocation in `mode` and write its numbers; returns its status."""
    stats = {}
    try:
        return {"count": count_main, "sample": sample_main}[mode](argv, stats)
    finally:
        with open(stats_path, "w") as fh:
            json.dump(stats, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2], sys.argv[3:]))
