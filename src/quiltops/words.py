"""Words over {1..n}: surjective, no consecutive repeats, no interlacing.

These span the arity-n part of the Gerstenhaber-Voronov operad.  The
degree of a word is length - n; caesurae (non-final occurrences) pair
off with interposed vertices, giving |W| = 2n - s - 1 where s counts
last-first pairs.

Word() validates, in time linear in its length: surjectivity onto 1..n
(one set), no consecutive repeat (one pass) and no interlacing (one pass
with a stack, _check_interlacing).  Words a lemma proves valid skip it
through _unchecked: faces and extensions (extensions), relabellings (quilts)
and the marked normal form's words (mquilt).  A word's
down-order names the one renaming under which its vertices first occur as
1, ..., n.  So the words of arity n are in bijection with the pairs
(first-occurrence word, permutation of 1..n); only the former are grown.
"""

from itertools import permutations


class WordInvalid(ValueError):
    pass


class Word:
    __slots__ = ("n", "letters", "_key")

    def __init__(self, letters, n=None):
        letters = tuple(letters)
        if n is None:
            n = max(letters) if letters else 0
        if set(letters) != set(range(1, n + 1)):
            raise WordInvalid("word %r is not surjective onto 1..%d" % (letters, n))
        for i in range(len(letters) - 1):
            if letters[i] == letters[i + 1]:
                raise WordInvalid("consecutive repetition at %d in %r" % (i, letters))
        _check_interlacing(letters)
        self.n = n
        self.letters = letters
        self._key = (n, letters)

    @classmethod
    def _unchecked(cls, letters, n):
        """A word already known to be valid: a face or a relabelling."""
        self = object.__new__(cls)
        self.n, self.letters, self._key = n, letters, (n, letters)
        return self

    @property
    def degree(self):
        return len(self.letters) - self.n

    def __len__(self):
        return len(self.letters)

    def key(self):
        return self._key

    def sort_key(self):
        return (self.n, self.degree, self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def occurrences(self, a):
        return [i for i, x in enumerate(self.letters) if x == a]

    def count(self, a):
        return self.letters.count(a)

    def caesura_positions(self):
        """Occurrences with a later occurrence of the same vertex."""
        ls = self.letters
        return [i for i, x in enumerate(ls) if x in ls[i + 1:]]

    def interposed(self):
        """The interposed vertices, in down-order.

        A vertex is interposed when it directly follows a caesura; such a
        letter is always a first occurrence, and this pairs interposed
        vertices bijectively with caesurae (so there are degree many).
        """
        inter = {self.letters[i + 1] for i in self.caesura_positions()}
        return [v for v in self.down_order() if v in inter]

    def between(self, u):
        """Vertices occurring strictly between two occurrences of u; this
        looser pattern is the one quilt axiom (2) and the grid diagrams
        use, not the caesura pairing."""
        occ = self.occurrences(u)
        if len(occ) < 2:
            return set()
        return {x for x in self.letters[occ[0] + 1:occ[-1]] if x != u}

    def down_order(self):
        """Vertices in order of first occurrence."""
        seen, out = set(), []
        for x in self.letters:
            if x not in seen:
                seen.add(x)
                out.append(x)
        return out

    def last_first_pairs(self):
        """Positions i such that letter i is a last occurrence and letter
        i+1 is a first occurrence."""
        out = []
        for i in range(len(self.letters) - 1):
            u, v = self.letters[i], self.letters[i + 1]
            if u not in self.letters[i + 1:] and v not in self.letters[:i + 1]:
                out.append(i)
        return out

    def relabel(self, new):
        """The word with each u renamed new[u], new a checked permutation."""
        if set(new[1:self.n + 1]) != set(range(1, self.n + 1)):
            raise WordInvalid("relabelling %r is not a permutation of 1..%d" % (new, self.n))
        return Word._unchecked(tuple(new[x] for x in self.letters), self.n)

    def __str__(self):
        if self.n <= 9:
            return "".join(str(x) for x in self.letters)
        return ",".join(str(x) for x in self.letters)

    __repr__ = __str__


def _check_interlacing(letters):
    """Reject u...v...u...v.  Once we return to u, every vertex strictly
    between the two u's is closed and may not occur again.

    The open vertices sit on a stack ordered by last occurrence, so the
    vertices seen since the previous u are exactly those above u: a
    return to u pops and closes them.  Each vertex is pushed and popped
    at most once, so the check is linear in the length.
    """
    stack, is_open = [], {}
    for i, x in enumerate(letters):
        state = is_open.get(x)
        if state:
            while stack[-1] != x:
                is_open[stack.pop()] = False
        elif state is None:
            stack.append(x)
            is_open[x] = True
        else:
            raise WordInvalid("interlacing at position %d in %r" % (i, letters))


def parse_word(text):
    """Parse "1232" or "1,2,3,2"."""
    text = text.strip()
    try:
        letters = tuple(int(t) for t in (text.split(",") if "," in text else text))
        if not letters:
            raise ValueError
    except ValueError:
        raise WordInvalid("expected a word of vertex labels such as 1232 "
                          "or 1,2,3,2") from None
    return Word(letters)


def word_statistics(w):
    """Degree, caesurae, interposed vertices, last-first count, down order.

    The caesurae pair with interposed vertices: the vertex right after a
    caesura is interposed, and this is a bijection.
    """
    caesurae = w.caesura_positions()
    pairs = [(i, w.letters[i + 1]) for i in caesurae]
    stats = {
        "degree": w.degree,
        "caesurae": caesurae,
        "interposed": w.interposed(),
        "caesura_pairs": pairs,
        "lastFirstPairs": len(w.last_first_pairs()),
        "downOrder": w.down_order(),
    }
    assert len(w) == 2 * w.n - stats["lastFirstPairs"] - 1
    assert len(caesurae) == len(stats["interposed"]) == w.degree
    return stats


def first_occurrence_words(n, degree=None):
    """The words of arity n (optionally of one degree) whose vertices first
    occur in the order 1, 2, ..., n, canonically ordered.

    Grown letter by letter, with the open vertices on a stack as in
    _check_interlacing: the next letter returns to an open vertex below the
    top, closing those above it for good, or is the next unused label.
    """
    if n < 1:
        raise ValueError("arity must be at least 1, got %d" % n)
    max_len = 2 * n - 1 if degree is None else n + degree
    out = []

    def grow(letters, stack, seen):
        if seen == n:
            if degree is None or len(letters) - n == degree:
                out.append(Word(letters, n))
        if len(letters) >= max_len:
            return
        for i, x in enumerate(stack[:-1]):
            grow(letters + (x,), stack[:i + 1], seen)
        if seen < n:
            grow(letters + (seen + 1,), stack + (seen + 1,), seen + 1)

    grow((), (), 0)
    out.sort(key=Word.sort_key)
    return out


def enumerate_words(n, degree=None):
    """All words of arity n (optionally of one degree), canonically ordered:
    the first-occurrence words relabelled by every permutation of 1..n."""
    firsts = first_occurrence_words(n, degree)
    out = [w.relabel((0,) + p) for p in permutations(range(1, n + 1)) for w in firsts]
    out.sort(key=Word.sort_key)
    return out
