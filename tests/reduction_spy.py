"""A counting stand-in for ``gb._reduction``, the one reducer."""

from secantlab import gb as gb_module


class ReductionSpy:
    """Replaces ``gb._reduction`` with a wrapper around the real reducer
    that passes on each of its pauses, one per division, so the run takes
    the same course.  While ``watching``, it counts the division steps and
    the terms merged, the stream terms the reducer reads (each once, to
    merge it at the heap's top or to drain it), abandoned reductions
    included, and keeps the remainder of each head reduction that
    finishes.  Terms are counted as they are read: every stream is a
    counting tuple, the reducers' tails included, for ``gb._Reducer`` is
    replaced too."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self.merged = 0
        self.heads = []
        self.watching = True
        real = gb_module._reduction
        spy = self

        class Counted(tuple):
            __slots__ = ()

            def __iter__(self):
                for term in tuple.__iter__(self):
                    if spy.watching:
                        spy.merged += 1
                    yield term

        def counted(terms):
            return terms if isinstance(terms, Counted) else Counted(terms)

        class CountedReducer(gb_module._Reducer):
            __slots__ = ()

            def __init__(self, lm_full, tail, index, codec):
                super().__init__(lm_full, counted(tail), index, codec)

        def reduction(streams, reducers, codec, p, head_only=False,
                      cache=None):
            streams = [(counted(terms), shift, k)
                       for terms, shift, k in streams]
            run = real(streams, reducers, codec, p, head_only, cache)
            while True:
                try:
                    red = next(run)
                except StopIteration as finished:
                    if head_only and self.watching:
                        self.heads.append(finished.value)
                    return finished.value
                if self.watching:
                    self.steps += 1
                yield red

        monkeypatch.setattr(gb_module, "_Reducer", CountedReducer)
        monkeypatch.setattr(gb_module, "_reduction", reduction)
