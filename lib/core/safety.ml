type level = Zero_safe | One_safe | Group_safe | Group_one_safe | Two_safe | Very_safe

let all = [ Zero_safe; One_safe; Group_safe; Group_one_safe; Two_safe; Very_safe ]

let to_string = function
  | Zero_safe -> "0-safe"
  | One_safe -> "1-safe"
  | Group_safe -> "group-safe"
  | Group_one_safe -> "group-1-safe"
  | Two_safe -> "2-safe"
  | Very_safe -> "very-safe"

let of_string s =
  List.find_opt (fun l -> String.equal (to_string l) (String.lowercase_ascii s)) all

let pp ppf l = Format.pp_print_string ppf (to_string l)

let equal a b =
  match (a, b) with
  | Zero_safe, Zero_safe
  | One_safe, One_safe
  | Group_safe, Group_safe
  | Group_one_safe, Group_one_safe
  | Two_safe, Two_safe
  | Very_safe, Very_safe ->
    true
  | (Zero_safe | One_safe | Group_safe | Group_one_safe | Two_safe | Very_safe), _ -> false

type delivered_guarantee = Delivered_one | Delivered_all
type logged_guarantee = Logged_none | Logged_one | Logged_all

let classify ~delivered ~logged =
  match (delivered, logged) with
  | Delivered_one, Logged_none -> Some Zero_safe
  | Delivered_one, Logged_one -> Some One_safe
  | Delivered_one, Logged_all -> None (* a transaction is logged only where delivered *)
  | Delivered_all, Logged_none -> Some Group_safe
  | Delivered_all, Logged_one -> Some Group_one_safe
  | Delivered_all, Logged_all -> Some Two_safe

type crash_tolerance = Tolerates_none | Tolerates_minority | Tolerates_all

let crash_tolerance = function
  | Zero_safe | One_safe -> Tolerates_none
  | Group_safe | Group_one_safe -> Tolerates_minority
  | Two_safe | Very_safe -> Tolerates_all

let lost_if level ~group_failed ~delegate_crashed =
  match level with
  | Zero_safe | One_safe -> delegate_crashed
  | Group_safe -> group_failed
  | Group_one_safe -> group_failed && delegate_crashed
  | Two_safe | Very_safe -> false

let description = function
  | Zero_safe -> "the transaction reached its delegate server; nothing is durable yet"
  | One_safe -> "the transaction is logged on the delegate server only"
  | Group_safe ->
    "the message carrying the transaction is guaranteed to be delivered on all available \
     servers; durability rests on the group"
  | Group_one_safe ->
    "group-safe, and additionally the transaction is logged on the delegate server"
  | Two_safe -> "the transaction is logged on all available servers"
  | Very_safe -> "the transaction is logged on every server, available or not"
