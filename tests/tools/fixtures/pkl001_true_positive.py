"""PKL001 true positives: unpicklable callables at the executor boundary."""


def dispatch(pool, items):
    futures = [pool.submit(lambda item: item * 2, item) for item in items]  # line 5

    def local_worker(item):
        return item + 1

    mapped = list(pool.map(local_worker, items))  # line 10
    task = PointTask(token="t", spec=lambda: None, cache_dir=None)  # line 11
    return futures, mapped, task


class PointTask:  # minimal stand-in so the fixture parses standalone
    def __init__(self, token, spec, cache_dir):
        self.spec = spec
