package repro.jobs

import org.scalatest.funsuite.AnyFunSuite

class CalibrateJobSpec extends AnyFunSuite {

  test("an unknown method is rejected, naming the valid ones") {
    val e = intercept[IllegalArgumentException](CalibrateJob.main(Array("aids", "4", "2", "1000", "prm")))
    assert(e.getMessage.contains("unknown method 'prm'"))
    assert(e.getMessage.contains("ted, base, allg, fsgg"))
  }
}
