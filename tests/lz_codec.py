"""Writer and reader for the code whose length the LZ estimator counts,
used only by the test suite.

``encode(x)`` writes, as a string of "0"/"1", gamma(k + 1), a model bit,
then either the k bits of x verbatim (model 0) or the tokens of the
reference parse (model 1): 0 and the bit for a literal; 1, gamma(offset)
and gamma(length) for a phrase.  Model 1 is taken only when its tokens
are shorter than k, which matches the estimator's min(k, cost).
``decode`` reads such a string back and rejects any bit left over, so
``len(encode(x)) == description_length_estimate(x).estimate`` and
``decode(encode(x)) == x`` make the estimate the length of a decodable
code.  The gamma code is Elias's: m in binary after bit_length(m) - 1
zeros.
"""

from lz_reference import lz_tokens


def _gamma(m: int) -> str:
    b = format(m, "b")
    return "0" * (len(b) - 1) + b


def encode(bits) -> str:
    x = [int(b) for b in bits]
    body = "".join(
        f"0{n}" if off == 0 else "1" + _gamma(off) + _gamma(n) for off, n in lz_tokens(x)
    )
    model = "1" + body if len(body) < len(x) else "0" + "".join(map(str, x))
    return _gamma(len(x) + 1) + model


def decode(code: str) -> list[int]:
    pos = 0

    def read(n: int) -> str:
        nonlocal pos
        if pos + n > len(code):
            raise ValueError("code ends early")
        pos += n
        return code[pos - n : pos]

    def gamma() -> int:
        zeros = code.find("1", pos) - pos
        if zeros < 0:
            raise ValueError("code ends early")
        read(zeros)
        return int(read(zeros + 1), 2)

    k = gamma() - 1
    if read(1) == "0":
        x = [int(b) for b in read(k)]
    else:
        x = []
        while len(x) < k:
            if read(1) == "0":
                x.append(int(read(1)))
            else:
                off, n = gamma(), gamma()
                if not 0 < off <= len(x) or len(x) + n > k:
                    raise ValueError("phrase outside the decoded bits")
                for _ in range(n):  # one bit at a time: a phrase may overlap itself
                    x.append(x[-off])
    if pos != len(code):
        raise ValueError("bits left after the last token")
    return x
