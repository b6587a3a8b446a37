"""Reference enumerations the tests compare the program against."""


def enumerate_arrangements(lam):
    """Yield every distinct arrangement of the type multiset (lam_v copies
    of v), lexicographically: from the sorted arrangement, each next one
    swaps the last ascent's left entry with the least larger entry to its
    right and reverses the run after it."""
    a = [v for v, c in enumerate(lam) for _ in range(c)]
    while True:
        yield tuple(a)
        i = len(a) - 2
        while i >= 0 and a[i] >= a[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(a) - 1
        while a[j] <= a[i]:
            j -= 1
        a[i], a[j] = a[j], a[i]
        a[i + 1:] = reversed(a[i + 1:])
