type axis = Lxu_util.Axis.t = Desc | Child

type chain = { tags : string array; axes : axis array; has_preds : bool }

let choose ?allow_holistic:_ ~log:_ _ = ()
