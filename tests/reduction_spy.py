"""A counting stand-in for ``gb._reduction``, the one reducer."""

from secantlab import gb as gb_module


class ReductionSpy:
    """Replaces ``gb._reduction`` with the real reducer run one division
    at a time, pausing where the real one would, so the run takes the same
    course.  While ``watching``, it counts division steps and tail-term
    updates (the tail length of each reducer applied), abandoned
    reductions included, and keeps the remainder of each head reduction
    that finishes."""

    def __init__(self, monkeypatch):
        self.steps = 0
        self.updates = 0
        self.heads = []
        self.watching = True
        real = gb_module._reduction

        def spy(items, reducers, codec, p, head_only=False, cache=None,
                step=gb_module._STEP):
            run = real(items, reducers, codec, p, head_only, cache, step=1)
            done = 0
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
                done += 1
                if done == step:
                    done = 0
                    yield red

        monkeypatch.setattr(gb_module, "_reduction", spy)
