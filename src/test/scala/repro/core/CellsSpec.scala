package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import org.scalacheck.rng.Seed
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Cells._

/** Syntactic typing and the Table 1 color encoding. */
class CellsSpec extends AnyFunSuite {

  // --- samples straight from paper Table 1
  test("empty cell is Empty")                { assert(synType("") == Empty) }
  test("whitespace-only cell is Empty")      { assert(synType("   ") == Empty) }
  test("'14' is Integer")                    { assert(synType("14") == IntegerSt) }
  test("'47.74' is Floating-point")          { assert(synType("47.74") == FloatSt) }
  test("'17:00' is Time")                    { assert(synType("17:00") == TimeSt) }
  test("'17/9/20' is Date")                  { assert(synType("17/9/20") == DateSt) }
  test("'MWH' is Uppercase")                 { assert(synType("MWH") == UppercaseSt) }
  test("'real/time' is Lowercase")           { assert(synType("real/time") == LowercaseSt) }
  test("'Firm Sales' is Titlecase")          { assert(synType("Firm Sales") == TitlecaseSt) }
  test("'System avg. =' is Generic")         { assert(synType("System avg. =") == GenericSt) }

  // --- numbers
  test("negative integer")                   { assert(synType("-42") == IntegerSt) }
  test("positive signed integer")            { assert(synType("+7") == IntegerSt) }
  test("'1990' is Integer (ambiguity resolved syntactically)") { assert(synType("1990") == IntegerSt) }
  test("float with comma decimal separator") { assert(synType("3,14") == FloatSt) }
  test("float in scientific notation")       { assert(synType("6.02e23") == FloatSt) }
  test("leading-dot float")                  { assert(synType(".5") == FloatSt) }
  test("surrounding whitespace is trimmed")  { assert(synType("  12  ") == IntegerSt) }

  // --- datetime
  test("time with seconds")                  { assert(synType("09:30:12") == TimeSt) }
  test("iso-ish dashed date")                { assert(synType("2020-09-17") == DateSt) }
  test("dotted date")                        { assert(synType("17.9.2020") == DateSt) }
  test("date wins over integer parse")       { assert(synType("1/1/1") == DateSt) }

  // --- strings
  test("single uppercase letter")            { assert(synType("X") == UppercaseSt) }
  test("lowercase sentence")                 { assert(synType("per thousand live birth") == LowercaseSt) }
  test("uppercase with digits stays uppercase") { assert(synType("Q1") == UppercaseSt) }
  test("single titlecase word")              { assert(synType("Total") == TitlecaseSt) }
  test("titlecase with numeric token")       { assert(synType("Table 11. Projected Mortality") == TitlecaseSt) }
  test("mixed-case word is Generic")         { assert(synType("aVg") == GenericSt) }
  test("camel case is Generic")              { assert(synType("netOfLosses") == GenericSt) }
  test("symbols only is Generic")            { assert(synType("***") == GenericSt) }
  test("mixed-case words are Generic")       { assert(synType("x-Rate adj.") == GenericSt) }

  // --- fundamental grouping
  test("number subtypes share the Number fundamental") {
    assert(IntegerSt.fundamental == NumberT && FloatSt.fundamental == NumberT)
  }
  test("datetime subtypes share the Datetime fundamental") {
    assert(TimeSt.fundamental == DatetimeT && DateSt.fundamental == DatetimeT)
  }
  test("string subtypes share the String fundamental") {
    assert(Seq(UppercaseSt, LowercaseSt, TitlecaseSt, GenericSt).forall(_.fundamental == StringT))
  }

  // --- colors (Table 1): one primary per fundamental, shades per subtype
  test("empty is white")                     { assert(Empty.rgb == ((255, 255, 255))) }
  test("number shades are blue-dominant") {
    for (t <- Seq(IntegerSt, FloatSt)) { val (r, g, b) = t.rgb; assert(b >= r && b >= g, t) }
  }
  test("datetime shades are green-dominant") {
    for (t <- Seq(TimeSt, DateSt)) { val (r, g, b) = t.rgb; assert(g >= r && g >= b, t) }
  }
  test("string shades are red-dominant") {
    for (t <- Seq(UppercaseSt, LowercaseSt, TitlecaseSt, GenericSt)) {
      val (r, g, b) = t.rgb; assert(r >= g && r >= b, t)
    }
  }
  test("all nine types have distinct colors") {
    assert(all.map(_.rgb).distinct.size == all.size)
  }
  test("codes are stable and dense") {
    assert(all.map(_.code) == (0 until all.size))
    assert(all.forall(t => all(t.code) == t))
  }
  test("same-fundamental colors are closer than cross-fundamental (histogram intuition)") {
    def dist(a: (Int, Int, Int), b: (Int, Int, Int)): Double =
      math.sqrt(math.pow(a._1 - b._1, 2) + math.pow(a._2 - b._2, 2) + math.pow(a._3 - b._3, 2))
    val within = dist(LowercaseSt.rgb, TitlecaseSt.rgb)
    val across = dist(LowercaseSt.rgb, IntegerSt.rgb)
    assert(within < across)
  }

  test("type inference is total over random ascii strings") {
    val rnd = new scala.util.Random(1)
    for (_ <- 0 until 500) {
      val s = rnd.alphanumeric.take(rnd.nextInt(12)).mkString
      assert(all.contains(synType(s)))
    }
  }

  // --- the one-pass typing against Table 1's rules as regular expressions
  private def show(s: String): String = s.flatMap(c => if (c < ' ') f"\\u${c.toInt}%04X" else c.toString)
  for ((s, t) <- Seq(
      "1:2" -> GenericSt, "12:345" -> GenericSt, "1:23:4" -> GenericSt, "1.2.3" -> DateSt,
      "12345/1/1" -> GenericSt, "+.5e-3" -> FloatSt, "1," -> FloatSt, "." -> GenericSt,
      "e5" -> LowercaseSt, "Mc Donald" -> TitlecaseSt, "\u01C5emal" -> GenericSt, "\u000B12\u000B" -> IntegerSt))
    test(s"'${show(s)}' is ${t.name}, as under the regular expressions") {
      assert(ReferenceTyping.synType(s) == t)
      assert(synType(s) == t)
    }

  test("property: the one-pass typing equals the regular expressions on number-like strings") {
    val char = Gen.frequency(
      4 -> Gen.numChar,
      3 -> Gen.oneOf("+-.,:/eE"),
      2 -> Gen.oneOf(" \t\u000B\u00A0aZ\u00DF\u01C5\u00AA\u4E2D_%"))
    val gen = Gen.choose(0, 12).flatMap(Gen.listOfN(_, char)).map(_.mkString)
    val params = org.scalacheck.Test.Parameters.default
      .withMinSuccessfulTests(20000).withInitialSeed(Seed(1912L))
    val res = org.scalacheck.Test.check(params, Prop.forAll(gen) { s =>
      (synType(s) == ReferenceTyping.synType(s)) :| s"'${show(s)}'"
    })
    assert(res.passed, org.scalacheck.util.Pretty.pretty(res))
  }

  test("isEmpty agrees with synType") {
    for (s <- Seq("", " ", "\t", "a", "1")) assert(CellOps.isEmpty(s) == (synType(s) == Empty))
  }
}
