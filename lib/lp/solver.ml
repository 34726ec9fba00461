let solve ?params ?(check = Certify.Off) prob =
  let eng = Simplex.of_problem ?params prob in
  let status = Simplex.solve eng in
  let sol = Simplex.solution eng in
  if
    status = Status.Optimal && check <> Certify.Off
    && not (Certify.check ~level:check prob sol).Certify.ok
  then { sol with Status.status = Status.Numerical_failure }
  else sol
