"""Copy search by trying every injection, an oracle independent of copy_blocks."""

import itertools


def brute_images(host, pattern, induced, within=None):
    """Yield every copy of pattern in host as a tuple of host elements.

    Entry k is the image of pattern element k. Every injection from the
    pattern into the host elements (those in the mask ``within``, default
    all) is tried: a weak copy preserves strict order, an induced copy also
    maps incomparable elements to incomparable ones.
    """
    elems = [v for v in range(host.n) if within is None or within >> v & 1]
    pairs = list(itertools.permutations(range(pattern.n), 2))
    for image in itertools.permutations(elems, pattern.n):
        if all(
            host.lt(image[i], image[j])
            if pattern.lt(i, j)
            else not (induced and not pattern.lt(j, i) and host.lt(image[i], image[j]))
            for i, j in pairs
        ):
            yield image
