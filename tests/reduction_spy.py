"""A counting stand-in for ``gb._reduction``, the one reducer."""

from secantlab import gb as gb_module


class ReductionSpy:
    """Replaces ``gb._reduction`` with a wrapper around the real reducer
    that passes on each of its pauses, one per division, so the run takes
    the same course.  While ``watching``, it counts the division steps and
    tail-term updates (the tail length of each reducer applied), abandoned
    reductions included, and keeps the remainder of each head reduction
    that finishes."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self.updates = 0
        self.heads = []
        self.watching = True
        real = gb_module._reduction

        def spy(items, reducers, codec, p, head_only=False, cache=None):
            run = real(items, reducers, codec, p, head_only, cache)
            while True:
                try:
                    red = next(run)
                except StopIteration as finished:
                    if head_only and self.watching:
                        self.heads.append(finished.value)
                    return finished.value
                if self.watching:
                    self.steps += 1
                    self.updates += len(red.tail)
                yield red

        monkeypatch.setattr(gb_module, "_reduction", spy)
