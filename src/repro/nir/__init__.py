"""NIR: the NCL intermediate representation (``ir``), its lowering from
the AST (``lower``), passes (``passes``) and executor (``interp``, which
runs what ``pygen`` generates)."""
