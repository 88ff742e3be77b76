"""Two functions; run as ``__main__``, only the first is called."""


def called():
    return sorted(x * 2 for x in range(3))


def never_called():
    total = 0
    for x in range(3):
        total += x
    return total


if __name__ == "__main__":
    called()
