"""Default resource caps.

They live apart from the modules that enforce them, so that ``config`` can
name every default without loading the finite-group stack.
"""

Q_CAP = 81  # largest field size; fields.FqField enforces it
CLOSURE_CAP = 10 ** 6  # largest group order a stabilizer chain may reach
JORDAN_ORDER_CAP = 360  # largest group order given a multiplication table
